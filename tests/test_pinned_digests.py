"""Pinned digests: four small configs train to recorded network bytes, and
the property suite writes a recorded table.

A change that keeps behaviour keeps these digests.  A change in behaviour
made on purpose bumps `training.REVISION`, records the before and after in
CHANGES.md, and pins the new revision's digests in PINNED; an intended
change to the verify table updates VERIFY_TABLE.  The digests hold on
numpy 2.4.6 (matmuls in its bundled OpenBLAS 0.3.31) and scipy 1.17.1
(every Cholesky in its bundled OpenBLAS 0.3.30), on one BLAS thread
(conftest.py).  A failure names both builds it ran on, the LAPACK
binding and each build's live thread count, so a different build can be
told apart from a change in behaviour.
"""

import ctypes
import hashlib
import importlib.metadata
import os

import numpy as np
import pytest

from geoib import linalg
from geoib.config import TrainConfig
from geoib.training import REVISION, run_training
from geoib.verify import run_all_checks, write_results

DATASET = "gauss_mixture:n=1000,noise=0.14"

# revision: {name: (TrainConfig overrides, encoder.net sha256,
# decoder.net sha256)}; every revision pins the same names.  r2 changed
# only inputs wider than the batch can span, so these configs keep r1's.
_R1 = {
    "geoib": (
        {},
        "e966fb99c7fe70401e6bcf71f1be6f7b62cd7050799b8b5aee292a066f8f1bc4",
        "25e8a313f651efdff8b42032f0d87d59b7052de9c399239a5e3ba5e00036798f",
    ),
    "vib": (
        {"method": "vib"},
        "cfa738e2fb337db3e9fb1f81c2e9cc7541cbc91215608f6659651298ca3d7b42",
        "c07c52d5f46c0116710ca8a21c65da3418c5845255fee0fd5753c550c7e9cc43",
    ),
    "vib_natural_gradient": (
        {"method": "vib", "vib_natural_gradient": True},
        "abd145d1b2874bd3d6b9ccd537cd848c4ff0ab82105a12f3dcedb1b2a4e99f7a",
        "bd644a19822f917c6f34d2cea737d255a76bea4fa873a846e17ac84352c8947a",
    ),
    "geoib_fr_quadratic_beta1": (
        {"fr_mode": "fr_quadratic", "beta": 1.0},
        "f6b01578ff75259b571b31deacb3b09e84991ffe781f9321274c816dd9591f90",
        "c22ef260db683dac23a8e372a77eeecbff0fc5b6861c85baa73795ee1e591544",
    ),
}
PINNED = {"r1": _R1, "r2": _R1}

# sha256 of the table `geoib verify --seed 0 --out F` writes
VERIFY_TABLE = "162be132874ec3c72b79aa7063ff1bed9b6244565fc4c76f5c8b90796dc3c22b"


def _openblas_get(package: str, symbol: str, restype):
    """`symbol()` of the OpenBLAS build bundled beside `package`, or None
    when that build or symbol is not there."""
    lib = linalg._bundled_openblas(package)
    if lib is None or not hasattr(lib, symbol):
        return None
    getter = getattr(lib, symbol)
    getter.argtypes, getter.restype = (), restype
    return getter()


def _openblas_config(package: str, symbol: str) -> str:
    """The config string of the OpenBLAS build bundled beside `package`."""
    config = _openblas_get(package, symbol, ctypes.c_char_p)
    if config is None:
        return "none bundled"
    return config.decode("ascii", "replace").strip()


def _lapack_binding() -> str:
    """The library `linalg._lapack` bound: scipy's bundled OpenBLAS, by
    path, or else scipy's Cython capsules."""
    lib = linalg._bundled_openblas("scipy")
    bound = ctypes.cast(linalg._lapack()["dposv"], ctypes.c_void_p).value
    if lib is not None and hasattr(lib, "scipy_dposv_") and (
            bound == ctypes.cast(lib.scipy_dposv_, ctypes.c_void_p).value):
        return lib._name
    return "scipy.linalg.cython_lapack capsules"


def _build() -> str:
    """numpy's and scipy's versions and bundled OpenBLAS builds (numpy's
    runs the matmuls, scipy's every Cholesky), the LAPACK binding and each
    build's live thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = []
    for package, symbol in (("numpy", "scipy_openblas_get_num_threads64_"),
                            ("scipy", "scipy_openblas_get_num_threads")):
        n = _openblas_get(package, symbol, ctypes.c_int)
        threads.append(f"{package} {'none bundled' if n is None else n}")
    return (f"numpy {np.__version__}, BLAS {blas.get('name')} "
            f"{blas.get('version')} "
            f"[{_openblas_config('numpy', 'scipy_openblas_get_config64_')}], "
            f"scipy {importlib.metadata.version('scipy')} "
            f"[{_openblas_config('scipy', 'scipy_openblas_get_config')}], "
            f"LAPACK from {_lapack_binding()}, "
            f"OpenBLAS threads {', '.join(threads)}, "
            f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}")


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", next(iter(PINNED.values())))
def test_small_run_reproduces_pinned_digests(name, tmp_path):
    assert REVISION in PINNED, (
        f"no digests are pinned for training revision {REVISION!r}: record "
        f"its runs' digests in PINNED[{REVISION!r}]")
    overrides, enc_sha, dec_sha = PINNED[REVISION][name]
    cfg = TrainConfig(epochs=3, dataset=DATASET, **overrides)
    run_training(cfg, out_dir=str(tmp_path), evaluate=False)
    got = (_sha256(tmp_path / "encoder.net"), _sha256(tmp_path / "decoder.net"))
    assert got == (enc_sha, dec_sha), (
        f"{name}: encoder/decoder sha256 {got} differ from the pinned "
        f"{(enc_sha, dec_sha)} of revision {REVISION!r} on {_build()}.  On "
        f"numpy 2.4.6 with OpenBLAS 0.3.31 and scipy 1.17.1 with OpenBLAS "
        f"0.3.30, on one thread, this is a change in behaviour: if it is "
        f"intended, bump training.REVISION, record the before/after in "
        f"CHANGES.md and pin the new revision's digests in PINNED; if not, "
        f"it is a defect."
    )


def test_verify_table_reproduces_pinned_digest(tmp_path):
    path = tmp_path / "verify.csv"
    write_results(run_all_checks(seed=0), path)
    got = _sha256(path)
    assert got == VERIFY_TABLE, (
        f"the seed-0 verify table has sha256 {got}, not the pinned "
        f"{VERIFY_TABLE}, on {_build()}:\n{path.read_text()}"
        f"An intended change to the table updates VERIFY_TABLE and records "
        f"the before/after lines in CHANGES.md."
    )
