"""Dense float64 linear algebra with strict shape and domain checking.

Arrays everywhere are C-contiguous numpy float64; there is no sparse path
and no single-precision path.  This is the one module that calls LAPACK.
It calls three Cholesky routines, `dposv`, `dpotrf` and `dpotrs`, through
one ctypes binding built on first use (`_lapack`), from the library that
`scipy.linalg.lapack` itself links: the OpenBLAS build bundled beside
scipy's package (`scipy.libs/libscipy_openblas*.so`, symbols
`scipy_dposv_` and so on).  Finding it there imports neither `scipy` nor
`scipy.linalg`, which costs about 0.3 s of start-up.  On a scipy build
without that library the routines come from the
`scipy.linalg.cython_lapack` capsules instead.  Each routine is handed the
layouts scipy's f2py wrappers hand it, Fortran-ordered copies of the
matrix and the right-hand sides, so the results are the bits of
`scipy.linalg.lapack`'s routines; a 1-D right-hand side gives a 1-D
solution.

`spd_solve` factors and solves a symmetric positive-definite system in one
`dposv` call (LAPACK's `dpotrf` followed by `dpotrs`); it serves the K-FAC
solves and the inversion probe's ridge, and raises FloatingPointError on a
non-finite or indefinite matrix.  Given a factor, it solves with `dpotrs`
alone.  `spd_factor` gives that upper factor, formed by `dpotrf` in the
matrix's own buffer, for a caller that solves one matrix more than once;
no K-FAC solve does.  `logdet_psd` factors with `dpotrf` and reports a
failing pivot by index instead of surfacing a generic LinAlgError.
`pin_blas_threads` runs the bundled OpenBLAS builds on one thread.
`conjugate_gradient` serves only truncated solves that cap the iteration
count on purpose; every solve meant to be exact factors its matrix
instead.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib.util
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Rejection threshold for |M - M^T| in logdet_psd.
SYMMETRY_TOL = 1e-10
# A Cholesky pivot at or below this is treated as a rank deficiency.
PIVOT_TOL = 1e-12

# The OpenBLAS builds that numpy's and scipy's wheels bundle in
# `<package>.libs`, by package: (library glob, thread-count setter).
# scipy's is the one scipy.linalg.lapack links, with 32-bit integers.
_OPENBLAS = {
    "numpy": ("libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_"),
    "scipy": ("libscipy_openblas*.so", "scipy_openblas_set_num_threads"),
}

# LAPACK takes every argument by reference.  Given a c_int or c_double
# for a pointer parameter, ctypes passes its address; c_double.from_buffer
# stands for an array's first element, and ctypes exports the buffer only
# of a C-contiguous, writeable, non-empty array.
_int = ctypes.c_int
_first_double = ctypes.c_double.from_buffer
_P_INT, _P_DOUBLE = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
# dposv and dpotrs take (uplo, n, nrhs, a, lda, b, ldb, info), dpotrf
# takes (uplo, n, a, lda, info)
_SOLVE = (ctypes.c_char_p, _P_INT, _P_INT, _P_DOUBLE, _P_INT, _P_DOUBLE, _P_INT, _P_INT)
_ARGTYPES = {"dposv": _SOLVE,
             "dpotrf": (ctypes.c_char_p, _P_INT, _P_DOUBLE, _P_INT, _P_INT),
             "dpotrs": _SOLVE}


@functools.cache
def _bundled_openblas(package: str) -> ctypes.CDLL | None:
    """The OpenBLAS build bundled beside `package` ("numpy" or "scipy"),
    or None when that wheel bundles none."""
    pattern, _ = _OPENBLAS[package]
    # found without importing the package, which scipy's import would cost
    libs = os.path.dirname(importlib.util.find_spec(package).origin) + ".libs"
    for path in glob.glob(os.path.join(libs, pattern)):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _capsule_address(name: str) -> int:
    """Address of the routine `name` that `scipy.linalg.cython_lapack`
    exports (this imports scipy.linalg)."""
    from scipy.linalg.cython_lapack import __pyx_capi__

    capsule = __pyx_capi__[name]
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    return ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, capsule_name)


@functools.cache
def _lapack() -> dict[str, Callable]:
    """The binding every LAPACK call goes through, each routine by name
    with its `_ARGTYPES`: from scipy's bundled OpenBLAS, or else from
    scipy's Cython capsules.  Built on first use, so importing this module
    loads no library."""
    lib = _bundled_openblas("scipy")
    try:
        addresses = {name: ctypes.cast(getattr(lib, f"scipy_{name}_"),
                                       ctypes.c_void_p).value
                     for name in _ARGTYPES}
    except AttributeError:  # no bundled library, or one without these symbols
        addresses = {name: _capsule_address(name) for name in _ARGTYPES}
    # a CFUNCTYPE call releases the GIL
    return {name: ctypes.CFUNCTYPE(None, *argtypes)(addresses[name])
            for name, argtypes in _ARGTYPES.items()}


def _column_major(a: np.ndarray) -> np.ndarray:
    """A float64 copy of a's transpose in C order, which holds a in
    Fortran order: the copy f2py hands LAPACK, in a buffer ctypes exports."""
    return np.array(a.T, dtype=np.float64, order="C")


def spd_solve(m: np.ndarray | None, b: np.ndarray, what: str,
              factor: np.ndarray | None = None) -> np.ndarray:
    """m^-1 b for a symmetric m, from the upper Cholesky factor of m.

    `factor`, when given, is `spd_factor` of m, and m is not read (it may
    be None).  b is (n,) or (n, k), and so is the result, which is
    Fortran-ordered.  m and b are left untouched.

    Raises:
        ValueError: if m (or the factor) is not square or b does not match it.
        FloatingPointError: naming `what`, if m holds non-finite entries or
            is not numerically positive definite.
    """
    c = m if factor is None else factor
    if (c.ndim != 2 or c.shape[0] != c.shape[1] or b.ndim not in (1, 2)
            or b.shape[0] != c.shape[0]):
        raise ValueError(f"{what}: cannot solve a system of shape {c.shape} "
                         f"for right-hand sides of shape {b.shape}")
    if factor is None and not np.isfinite(m).all():
        raise FloatingPointError(f"{what} has non-finite entries")
    x = _column_major(b)
    if x.size == 0:
        return x.T
    n, nrhs, info = _int(c.shape[0]), _int(x.size // c.shape[0]), _int()
    if factor is None:
        _lapack()["dposv"](b"U", n, nrhs, _first_double(_column_major(m)), n,
                           _first_double(x), n, info)
        if info.value != 0:
            raise FloatingPointError(f"{what} is not positive definite "
                                     f"(dpotrf info {info.value})")
    else:
        # spd_factor's factor is Fortran-ordered already: no copy
        ct = factor.T
        if not (ct.flags.c_contiguous and ct.flags.writeable
                and ct.dtype == np.float64):
            ct = _column_major(factor)
        # dpotrs's only failures are illegal arguments, which the shape
        # checks above rule out
        _lapack()["dpotrs"](b"U", n, nrhs, _first_double(ct), n,
                            _first_double(x), n, info)
    return x.T


def spd_factor(m: np.ndarray, what: str) -> np.ndarray:
    """Upper Cholesky factor of an exactly symmetric m, formed in m's own
    buffer, for `spd_solve(factor=)`.

    m must be a writeable, C-contiguous float64 square matrix equal to its
    transpose bit for bit.  LAPACK factors it through its F-contiguous
    transpose m.T, which is returned: its upper triangle holds the factor
    and its lower triangle keeps m's entries.  Because m.T equals m, these
    are the bits of scipy's `dpotrf(m, lower=0, clean=0)`, which factors a
    Fortran-ordered copy, without the copy.

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
    n, info = _int(c.shape[0]), _int()
    _lapack()["dpotrf"](b"U", n, _first_double(m), n, info)
    if info.value != 0:
        raise FloatingPointError(f"{what} is not positive definite "
                                 f"(dpotrf info {info.value})")
    return c


def pin_blas_threads() -> None:
    """Run numpy's and scipy's bundled OpenBLAS on one thread each.

    Products above OpenBLAS's threading sizes (a (128, 785) Gram product,
    a Cholesky factor of side 785) give other bits at two threads than at
    one, so a run pins one thread to be reproducible bit for bit whatever
    `OPENBLAS_NUM_THREADS` says.  A library or symbol that is not there
    (another BLAS build) leaves that library's thread count alone.
    """
    for package, (_, symbol) in _OPENBLAS.items():
        setter = getattr(_bundled_openblas(package), symbol, None)
        if setter is not None:
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
    # the lower triangle of a Fortran-ordered copy, left unzeroed above
    # the diagonal, as scipy's dpotrf(a, lower=1, clean=0) factors it
    at = _column_major(a)
    n, info_ref = _int(a.shape[0]), _int()
    _lapack()["dpotrf"](b"L", n, _first_double(at), n, info_ref)
    low, info = at.T, info_ref.value
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
