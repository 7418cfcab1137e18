"""Dense float64 linear algebra with strict shape and domain checking.

Arrays everywhere are C-contiguous numpy float64; there is no sparse path
and no single-precision path.  This is the one module that calls LAPACK's
Cholesky routines.  `spd_solve` factors and solves a symmetric
positive-definite system in one `dposv` call (LAPACK's `dpotrf` followed by
`dpotrs`); it serves the K-FAC solves and the inversion probe's ridge.  It
returns the bits `scipy.linalg.cho_factor` and `cho_solve` return, without
those wrappers' per-call cost, which on small layer factors exceeds the
factorization's own, and raises FloatingPointError on a non-finite or
indefinite matrix.  Given a factor, it solves with `dpotrs` alone.
`spd_factor` gives the upper factor for `spd_solve` to reuse, formed
in place by a `dpotrf` call that releases the GIL, so that a large factor
can be formed on a second thread while the first runs other numpy work.
scipy's f2py `dpotrf` holds the GIL for the whole factorization, and
factors a Fortran-ordered copy.
`logdet_psd` factors with `dpotrf` and reports a failing pivot by index
instead of surfacing a generic LinAlgError.  `conjugate_gradient` serves
only truncated solves that cap the iteration count on purpose; every solve
meant to be exact factors its matrix instead.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy
from scipy.linalg.lapack import dposv, dpotrf, dpotrs

# Rejection threshold for |M - M^T| in logdet_psd.
SYMMETRY_TOL = 1e-10
# A Cholesky pivot at or below this is treated as a rank deficiency.
PIVOT_TOL = 1e-12


def spd_solve(m: np.ndarray | None, b: np.ndarray, what: str,
              factor: np.ndarray | None = None) -> np.ndarray:
    """m^-1 b for a symmetric m, from the upper Cholesky factor of m.

    `factor`, when given, is `spd_factor` of m, and m is not read (it may
    be None).  Raises FloatingPointError naming `what` if m holds
    non-finite entries or is not numerically positive definite.  m and b
    are left untouched.
    """
    # dposv's and dpotrs's only other failures are illegal arguments,
    # which f2py's shape checks already rule out
    if factor is not None:
        return dpotrs(factor, b, lower=0)[0]
    if not np.isfinite(m).all():
        raise FloatingPointError(f"{what} has non-finite entries")
    _, x, info = dposv(m, b, lower=0)
    if info != 0:
        raise FloatingPointError(f"{what} is not positive definite "
                                 f"(dpotrf info {info})")
    return x


@functools.cache
def _dpotrf_nogil():
    """LAPACK dpotrf from scipy's Cython capsule, called through ctypes.

    A CFUNCTYPE call releases the GIL.  Built on first use, so importing
    this module does no ctypes work.
    """
    from scipy.linalg.cython_lapack import __pyx_capi__

    capsule = __pyx_capi__["dpotrf"]
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, name)
    p_int = ctypes.POINTER(ctypes.c_int)
    # void dpotrf(char *uplo, int *n, double *a, int *lda, int *info)
    return ctypes.CFUNCTYPE(None, ctypes.c_char_p, p_int, ctypes.c_void_p,
                            p_int, p_int)(address)


def spd_factor(m: np.ndarray, what: str) -> np.ndarray:
    """Upper Cholesky factor of an exactly symmetric m, formed in m's own
    buffer, for `spd_solve(factor=)`.

    m must be a writeable, C-contiguous float64 square matrix equal to its
    transpose bit for bit.  LAPACK factors it through its F-contiguous
    transpose m.T, which is returned: its upper triangle holds the factor
    and its lower triangle keeps m's entries.  Because m.T equals m, these
    are the bits of scipy's `dpotrf(m, lower=0, clean=0)`, which factors a
    Fortran-ordered copy, without the copy.  The factorization runs with
    the GIL released.  Each call costs about 5 us more than the f2py route
    (measured on 4- to 33-square matrices), so small matrices are better
    left to `spd_solve`.

    Raises:
        ValueError: if m is not a writeable C-contiguous float64 square
            matrix, or not exactly symmetric.
        FloatingPointError: naming `what`, if m holds non-finite entries or
            is not numerically positive definite.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {m.shape}")
    if m.dtype != np.float64 or not (m.flags.c_contiguous and m.flags.writeable):
        raise ValueError(f"{what} must be a writeable C-contiguous float64 array")
    if not np.isfinite(m).all():
        raise FloatingPointError(f"{what} has non-finite entries")
    c = m.T
    # LAPACK reads one triangle, so an asymmetric m would be factored as
    # another matrix than the one spd_solve(m, ...) would factor
    if not np.array_equal(m, c):
        raise ValueError(f"{what} is not exactly symmetric")
    n, info = ctypes.c_int(c.shape[0]), ctypes.c_int(0)
    _dpotrf_nogil()(b"U", ctypes.byref(n), c.ctypes.data, ctypes.byref(n),
                    ctypes.byref(info))
    if info.value != 0:
        raise FloatingPointError(f"{what} is not positive definite "
                                 f"(dpotrf info {info.value})")
    return c


# The thread-count setters of the OpenBLAS builds that numpy and scipy
# bundle, by (library glob beside the package, symbol).
_BLAS_SETTERS = (
    (os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas64_*.so"),
     "scipy_openblas_set_num_threads64_"),
    (os.path.join(os.path.dirname(scipy.__file__) + ".libs", "libscipy_openblas*.so"),
     "scipy_openblas_set_num_threads"),
)


def pin_blas_threads() -> None:
    """Run numpy's and scipy's bundled OpenBLAS on one thread each.

    Products above OpenBLAS's threading sizes (a (128, 785) Gram product,
    a Cholesky factor of side 785) give other bits at two threads than at
    one, so a run pins one thread to be reproducible bit for bit whatever
    `OPENBLAS_NUM_THREADS` says.  A library or symbol that is not there
    (another BLAS build) leaves that library's thread count alone.
    """
    for pattern, symbol in _BLAS_SETTERS:
        for path in glob.glob(pattern):
            try:
                setter = getattr(ctypes.CDLL(path), symbol)
            except (AttributeError, OSError):
                continue
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            setter(1)


def logdet_psd(m) -> float:
    """log-determinant of a symmetric positive-definite matrix.

    Factors m = L L^T with LAPACK's `dpotrf` on the lower triangle; the
    pivots are the squared diagonal of L, so a non-positive or tiny one can
    be reported by index, and `2 * sum(log(diag(L)))` is exact in the
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
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"m must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        return 0.0
    asym = float(np.max(np.abs(a - a.T)))
    if asym > SYMMETRY_TOL:
        raise ValueError(
            f"m is not symmetric: max |m - m^T| = {asym:.3e} exceeds {SYMMETRY_TOL:.0e}"
        )
    low, info = dpotrf(a, lower=1, clean=0)
    # dpotrf stops at the first non-positive pivot (info is its 1-based
    # index) and leaves that pivot on the diagonal
    pivots = np.diag(low) ** 2
    if info > 0:
        pivots = pivots[:info]
        pivots[-1] = low[info - 1, info - 1]
    bad = np.flatnonzero(~(np.isfinite(pivots) & (pivots > PIVOT_TOL)))
    if bad.size:
        j = int(bad[0])
        raise ValueError(
            f"matrix is not positive definite: pivot {pivots[j]:.3e} at index {j}"
        )
    return float(2.0 * np.sum(np.log(np.diag(low))))


@dataclass(frozen=True)
class CgResult:
    """Outcome of a conjugate-gradient solve.

    Attributes:
        x: the returned iterate.
        residual: relative residual ||A x - b|| / ||b|| (0 when b = 0).
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
    tol: float = 1e-6,
    max_iter: int = 50,
) -> CgResult:
    """Solve A x = b for a symmetric positive semidefinite operator A.

    `apply` is only ever called on vectors, so A may be represented
    implicitly (Kronecker factors, sums of outer products, ...).  Iteration
    stops once the true-residual norm drops to tol * ||b||; after max_iter
    products the best iterate found so far is returned with converged=False
    rather than raising.

    Args:
        apply: v -> A v, must be linear and symmetric PSD.
        b: right-hand side vector.
        tol: relative residual target.
        max_iter: cap on operator applications.

    Returns:
        CgResult with the iterate and a residual report.

    Raises:
        FloatingPointError: if any iterate or residual stops being finite.
        ValueError: if the operator changes the vector's dimension.
    """
    rhs = np.asarray(b, dtype=np.float64)
    if rhs.ndim != 1:
        raise ValueError(f"b must be 1-D, got shape {rhs.shape}")
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
        return av

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
