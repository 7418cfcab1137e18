import ctypes
import glob
import os
import re

import numpy as np
import pytest
import scipy
from scipy.linalg import lapack
from scipy.linalg.lapack import dpotrf, dpotrs

from geoib import linalg
from geoib.linalg import (
    CgResult,
    conjugate_gradient,
    logdet_psd,
    pin_blas_threads,
    spd_solve,
)
from geoib.rng import Rng
from oracles import jacobi_eigenvalues


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _spd(n: int, seed: int) -> np.ndarray:
    x = Rng(seed).uniform(-1.0, 1.0, (n + 3, n))
    m = x.T @ x / (n + 3)
    m.flat[:: n + 1] += 1e-2
    return m


# ------------------------------------------------------ the LAPACK binding


@pytest.fixture(params=["bundled", "capsules"])
def route(request, monkeypatch):
    """Each LAPACK route in turn: scipy's bundled OpenBLAS, or, with that
    library's lookup finding nothing, scipy's Cython capsules."""
    linalg._lapack.cache_clear()
    if request.param == "capsules":
        monkeypatch.setattr(linalg, "_bundled_openblas", lambda package: None)
    yield request.param
    linalg._lapack.cache_clear()


def _address(fn) -> int:
    return ctypes.cast(fn, ctypes.c_void_p).value


def test_the_binding_takes_the_route_it_is_given(route):
    libs = os.path.dirname(scipy.__file__) + ".libs"
    lib = ctypes.CDLL(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))[0])
    binding = linalg._lapack()
    assert sorted(binding) == ["dposv", "dpotrf"]
    for name, fn in binding.items():
        # a CFUNCTYPE call releases the GIL; a PYFUNCTYPE one would hold it
        assert not fn._flags_ & ctypes._FUNCFLAG_PYTHONAPI
        at_library = _address(fn) == _address(getattr(lib, f"scipy_{name}_"))
        assert at_library == (route == "bundled")


@pytest.mark.parametrize("n", [1, 4, 9, 33, 65, 128, 257])
def test_spd_solve_gives_the_bits_of_scipys_dposv(route, n):
    # in f2py's layouts: an F-ordered solution, and a vector for a vector;
    # 128 is the batch-space Gram at batch 128, 257 the probe's ridge
    m = _spd(n, 20 + n)
    rng = Rng(21 + n)
    for rhs in (rng.normal((n, 3)), rng.normal((5, n)).T, rng.normal(n)):
        _, want, info = lapack.dposv(m, rhs, lower=0)
        got = spd_solve(m, rhs, "m")
        assert info == 0 and got.shape == want.shape == rhs.shape
        assert got.flags.f_contiguous and np.array_equal(_bits(got), _bits(want))


def test_a_failing_pivot_is_named_as_scipys_routines_name_it(route):
    # a negative Schur complement at the third pivot
    m = np.array([[4.0, 2.0, 0.0], [2.0, 5.0, 3.0], [0.0, 3.0, 1.0]])
    info = lapack.dposv(m, np.ones(3), lower=0)[2]
    assert info == dpotrf(m, lower=0)[1] == 3
    pattern = rf"^m is not positive definite \(dpotrf info {info}\)$"
    with pytest.raises(FloatingPointError, match=pattern):
        spd_solve(m, np.ones(3), "m")
    low, info = dpotrf(m, lower=1, clean=0)
    with pytest.raises(ValueError, match=re.escape(f"pivot {low[2, 2]:.3e} at index 2")):
        logdet_psd(m)


@pytest.mark.parametrize("n", [1, 5, 33])
def test_logdet_gives_the_bits_of_scipys_dpotrf(route, n):
    # a symmetric-within-tolerance matrix: only its lower triangle is read
    m = _spd(n, 50 + n)
    m[np.triu_indices(n, 1)] += 1e-12
    low, info = dpotrf(m, lower=1, clean=0)
    want = float(2.0 * np.sum(np.log(np.diag(low))))
    assert info == 0 and _bits(logdet_psd(m)) == _bits(want)


def test_spd_solve_refuses_shapes_lapack_would_read_past():
    with pytest.raises(ValueError, match="shape"):
        spd_solve(np.eye(3), np.ones(4), "m")
    with pytest.raises(ValueError, match="shape"):
        spd_solve(np.ones((3, 2)), np.ones(3), "m")


def test_pin_blas_threads_reuses_the_bindings_library(monkeypatch):
    pin_blas_threads()
    lib = linalg._bundled_openblas("scipy")
    assert lib is not None and linalg._bundled_openblas("scipy") is lib

    def no_lookup(*args, **kwargs):
        raise AssertionError("looked the library up again")

    monkeypatch.setattr(linalg.glob, "glob", no_lookup)
    monkeypatch.setattr(linalg.ctypes, "CDLL", no_lookup)
    pin_blas_threads()


@pytest.mark.parametrize("found", [None, object()], ids=["no_library", "no_symbol"])
def test_pin_blas_threads_leaves_alone_what_it_cannot_find(monkeypatch, found):
    monkeypatch.setattr(linalg, "_bundled_openblas", lambda package: found)
    pin_blas_threads()


# -------------------------------------------------------------- spd_solve


def test_spd_solve_matches_a_dense_solve():
    rng = Rng(3)
    b = rng.normal((6, 6))
    m = b @ b.T + 0.5 * np.eye(6)
    rhs = rng.normal((6, 2))
    m_in, rhs_in = m.copy(), rhs.copy()
    got = spd_solve(m, rhs, "m")
    np.testing.assert_allclose(got, np.linalg.solve(m, rhs), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(m, m_in)
    np.testing.assert_array_equal(rhs, rhs_in)


def test_spd_solve_rejects_non_finite_entries():
    m = np.eye(3)
    m[0, 1] = m[1, 0] = np.nan
    with pytest.raises(FloatingPointError, match="^probe m has non-finite entries$"):
        spd_solve(m, np.ones(3), "probe m")


def test_spd_solve_rejects_an_indefinite_matrix():
    with pytest.raises(FloatingPointError,
                       match=r"^m is not positive definite \(dpotrf info 2\)$"):
        spd_solve(np.diag([1.0, -1.0]), np.ones(2), "m")


@pytest.mark.parametrize("n", [1, 4, 9, 33, 65, 257, 785])
def test_spd_solve_gives_the_bits_of_dpotrf_then_dpotrs(n):
    # one dposv call factors and solves as the two calls do, for right-hand
    # sides given as C- or F-ordered arrays
    rng = Rng(7 + n)
    x = rng.uniform(-1.0, 1.0, (n + 3, n))
    m = x.T @ x / (n + 3)
    m.flat[:: n + 1] += 1e-2
    factor, info = dpotrf(m, lower=0, clean=0)
    assert info == 0
    for k in (1, 2, 7, 64):
        for rhs in (rng.normal((n, k)), rng.normal((k, n)).T):
            want = dpotrs(factor, rhs, lower=0)[0]
            assert np.array_equal(spd_solve(m, rhs, "m").view(np.uint64),
                                  want.view(np.uint64))


def test_spd_solve_gives_the_bits_of_dpotrf_then_dpotrs_on_the_probe_ridge():
    # the inversion probe's normal equations: 257 square, 784 columns
    z = Rng(8).normal((400, 257))
    gram = z.T @ z
    gram.flat[:: 258] += 1e-3
    cross = z.T @ Rng(9).uniform(0.0, 1.0, (400, 784))
    factor, _ = dpotrf(gram, lower=0, clean=0)
    want = dpotrs(factor, cross, lower=0)[0]
    assert np.array_equal(spd_solve(gram, cross, "ridge").view(np.uint64),
                          want.view(np.uint64))


# ------------------------------------------------------------- logdet_psd


def test_logdet_identity():
    assert logdet_psd(np.eye(3)) == 0.0


def test_logdet_diagonal():
    assert abs(logdet_psd(np.diag([2.0, 2.0])) - 2.0 * np.log(2.0)) < 1e-15


def test_logdet_singular_names_pivot():
    with pytest.raises(ValueError, match="pivot.*index 1"):
        logdet_psd(np.diag([1.0, 0.0]))
    # a negative Schur complement, and a positive pivot under PIVOT_TOL
    with pytest.raises(ValueError, match=r"pivot -3\.000e\+00 at index 1"):
        logdet_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match=r"pivot 1\.000e-13 at index 1"):
        logdet_psd(np.diag([1.0, 1e-13, 1.0]))


def test_logdet_rejects_asymmetry():
    m = np.array([[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        logdet_psd(m)


def test_logdet_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        logdet_psd(np.ones((2, 3)))


def test_logdet_matches_jacobi_eigenvalues():
    """Independent oracle: ln det = sum of ln eigenvalues from a Jacobi
    sweep, on random SPD matrices up to 8x8."""
    rng = Rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        b = rng.normal((n, n))
        m = b @ b.T + 0.5 * np.eye(n)
        eig = jacobi_eigenvalues(m)
        assert abs(logdet_psd(m) - float(np.sum(np.log(eig)))) < 1e-8


# ---------------------------------------------------------------------- cg


def test_cg_identity_solve():
    b = Rng(3).normal(7)
    res = conjugate_gradient(lambda v: v, b)
    assert res.converged
    np.testing.assert_allclose(res.x, b, rtol=0, atol=1e-10)


def test_cg_damped_diagonal():
    # (diag(2,4) + I) v = (3,5) has the hand solution (1,1)
    res = conjugate_gradient(lambda v: np.array([2.0, 4.0]) * v + v,
                             np.array([3.0, 5.0]))
    np.testing.assert_allclose(res.x, [1.0, 1.0], rtol=0, atol=1e-10)


def test_cg_zero_rhs():
    res = conjugate_gradient(lambda v: v, np.zeros(4))
    assert res.iterations == 0 and res.converged
    np.testing.assert_array_equal(res.x, np.zeros(4))


def test_cg_reaches_tolerance_within_twice_dim():
    """Exact-arithmetic CG finishes in dim steps; allow 2x in floats."""
    rng = Rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 65))
        b_mat = rng.normal((n, n))
        a = b_mat @ b_mat.T + n * np.eye(n)
        rhs = rng.normal(n)
        res = conjugate_gradient(lambda v, a=a: a @ v, rhs,
                                 tol=1e-10, max_iter=2 * n)
        assert res.converged, f"dim {n}: residual {res.residual}"
        assert res.iterations <= 2 * n


def test_cg_residual_report_is_true_residual():
    rng = Rng(5)
    a = np.diag(rng.uniform(1.0, 3.0, 6))
    rhs = rng.normal(6)
    res = conjugate_gradient(lambda v: a @ v + 0.5 * v, rhs, tol=1e-12,
                             max_iter=50)
    actual = np.linalg.norm((a + 0.5 * np.eye(6)) @ res.x - rhs) / np.linalg.norm(rhs)
    assert abs(res.residual - actual) < 1e-13


def test_cg_nonfinite_operator_raises():
    with pytest.raises(FloatingPointError):
        conjugate_gradient(lambda v: v * np.inf, np.ones(3))


def test_cg_operator_shape_checked():
    with pytest.raises(ValueError, match="operator returned shape"):
        conjugate_gradient(lambda v: v[:-1], np.ones(3))


def test_cg_result_fields():
    res = conjugate_gradient(lambda v: v, np.ones(2))
    assert isinstance(res, CgResult)
    assert res.residual >= 0.0 and res.iterations >= 1
