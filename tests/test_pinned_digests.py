"""Pinned digests: four small configs train to recorded network bytes, as
do two whose encoder input is solved in batch space, and the property
suite writes a recorded table.

A change that keeps behaviour keeps these digests.  A change in behaviour
made on purpose bumps `training.REVISION`, records the before and after in
CHANGES.md, and pins the new revision's digests in PINNED and PINNED_WIDE;
an intended change to the verify table updates VERIFY_TABLE.  The digests
hold on numpy 2.4.6 (matmuls in its bundled OpenBLAS 0.3.31) and scipy
1.17.1 (every Cholesky in its bundled OpenBLAS 0.3.30), on one BLAS thread
(conftest.py).  A failure names both builds it ran on, the LAPACK binding
and each build's live thread count, so a different build can be told
apart from a change in behaviour.
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
# decoder.net sha256)}; the tests run the names of the latest revision,
# whose overrides are the ones TrainConfig takes now.  r2 changed only
# inputs wider than the batch can span, so these configs keep r1's.
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
# r3 draws the JF probes as Rademacher signs, which only geoib reads: its
# two configs train to new bits, and vib and vib_natural_gradient, which
# draw no probes, keep r1's and r2's digests.
PINNED = {"r1": _R1, "r2": _R1, "r3": {
    **_R1,
    "geoib": (
        {},
        "da30367243658595f98702cb928b46e51bcbf88e6be32e09dbb5d82b46a0a822",
        "10acc65a844518dcaf2b8afe36edadb1fb8b06ebccd9933abb7f5074f54a2fde",
    ),
    "geoib_fr_quadratic_beta1": (
        {"fr_mode": "fr_quadratic", "beta": 1.0},
        "4a4ef47723e7c1bbfb327a397aec1183f12992806b329b004bfe2068e4ba6255",
        "104102cec155d0fa24733461ab25e4805e6014fe7879b0d1a808b5848f22dbea",
    ),
}, "r4": {
    # r4 sums the JF adjoint's primal-track weight product over the probes
    # before it meets the input rows: geoib's two configs train to new bits
    **_R1,
    "geoib": (
        {},
        "f6ed12aabd090b3c2e2b05c756d9528fcdd3f3831bcc940ed40876a46c8a2281",
        "562b515bcab57b30167c88c6a6d2cf3c9fa494a3981cd28bb98741a120ff2b93",
    ),
    "geoib_fr_quadratic_beta1": (
        {"fr_mode": "fr_quadratic", "beta": 1.0},
        "ac3fd46a8348949e6dde0865fcc7d9b08d591fd1bbd074b54a47d24f265f89ac",
        "0af619b83c106c714e429c92a9f500d9a9c3dad0c579deba3934ea6851c21532",
    ),
}, "r5": {
    # r5 runs one reverse pass over the encoder for the loss and the JF
    # penalty, with the primal-track adjoint summed over the probes before
    # the second derivative: geoib's two configs train to new bits
    **_R1,
    "geoib": (
        {},
        "b15f296b87c9b8873e68d3f6538ff822e484ca1a144ac638404a8c87fc607959",
        "7950aaa56a0398d54345f538daaf17c90f9bdd54ef03db0093e672c6a5875af3",
    ),
    "geoib_fr_quadratic_beta1": (
        {"fr_mode": "fr_quadratic", "beta": 1.0},
        "7a95ceb61c816fe15bf0f2d70fc9cf094bdfe1605e114fe8c2afae7c554b0109",
        "fa83263a0ac5a5ffd00ad22629901beb31ce7701d8311bb0747184cbb72e843c",
    ),
}, "r6": {
    # r6 descends the JF penalty through the noise scale too, and geoib's
    # rate is the Fisher-Rao quadratic: there is no fr_mode, so geoib at
    # beta = 1 takes the place of its fr_quadratic config.  vib and
    # vib_natural_gradient keep r1's digests.
    "geoib": (
        {},
        "2e96311d0785a97c991eca3b18c77938685977d913f2958fd8aa94c7a3a6d9fd",
        "86c79970fadd3e16c409775f3b8c432e01b90d0dc37b7c7ce121a5ee06d61a7b",
    ),
    "vib": _R1["vib"],
    "vib_natural_gradient": _R1["vib_natural_gradient"],
    "geoib_beta1": (
        {"beta": 1.0},
        "2e67a6c6d8e60f2aac786e3fc50bd9625d713a581e10ff6e54caf4570f169916",
        "b89f9fbf3d3ebf8b8bbb806a3d7cbb3feff3dae7ad5951531134dbb004bfbe23",
    ),
}}

# Inputs wider than the batch: the encoder's input layer is solved in batch
# space (`fisher._batch_space_block`), which PINNED's narrow configs never
# reach.  Pinned from r4 on, which applies that layer's (G + lam I)^-1 as a
# matrix.
WIDE_DATASET = "gauss_mixture:n=400,dim=784"
_WIDE_R4 = {
    "geoib": (
        {},
        "b036906483802a0827dd9e40a4f99689bca0856035456f5cb306f2084c8e246f",
        "e2157d496ee0499618389cd0bae8b1ec3ede556814e61bfe0e5f10cd3251b726",
    ),
    "vib_natural_gradient": (
        {"method": "vib", "vib_natural_gradient": True},
        "f9696dbc0fde63a3f2fee326a749b5bef8b300ed96ba2b6562817f5436cb5b5b",
        "1a1151409d928b8ff7e22ddc9e258520591abffc3e7f0899ca8eee9c3d3682c0",
    ),
}
# r5's fused encoder reverse pass and r6's objective move geoib;
# vib_natural_gradient, which draws no probes, keeps r4's digests
PINNED_WIDE = {"r4": _WIDE_R4, "r5": {
    **_WIDE_R4,
    "geoib": (
        {},
        "7c814601a39228445ed38f190bfdbdbc3b6efd90b2eebe81026b185b8cf28c9b",
        "14374444c6816bbfbfd07270960480aaaff77db82e0681645754150252af8c2a",
    ),
}, "r6": {
    **_WIDE_R4,
    "geoib": (
        {},
        "34f767816c0dedf50f6f0739a921069f42c27700924d83611a3d0b8ccdc2c669",
        "262634e7d707883e17ff95452e77f03bd0104f8f46fb99c2188a6e439e3888ed",
    ),
}}

# sha256 of the table `geoib verify --seed 0 --out F` writes
VERIFY_TABLE = "548f86979a29983cbbfa01635631361ef95e83d520e9c6f3de20d44ea81bc6c2"


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


def _check_pinned_run(pinned, table, name, tmp_path, **base):
    """Train `name`'s config of `pinned` for this revision, `base` under
    its overrides, and compare the network digests; `table` names the
    dict in a failure."""
    assert REVISION in pinned, (
        f"no digests are pinned for training revision {REVISION!r}: record "
        f"its runs' digests in {table}[{REVISION!r}]")
    overrides, enc_sha, dec_sha = pinned[REVISION][name]
    cfg = TrainConfig(epochs=3, **base, **overrides)
    run_training(cfg, out_dir=str(tmp_path), evaluate=False)
    got = (_sha256(tmp_path / "encoder.net"), _sha256(tmp_path / "decoder.net"))
    assert got == (enc_sha, dec_sha), (
        f"{name}: encoder/decoder sha256 {got} differ from the pinned "
        f"{(enc_sha, dec_sha)} of revision {REVISION!r} on {_build()}.  On "
        f"numpy 2.4.6 with OpenBLAS 0.3.31 and scipy 1.17.1 with OpenBLAS "
        f"0.3.30, on one thread, this is a change in behaviour: if it is "
        f"intended, bump training.REVISION, record the before/after in "
        f"CHANGES.md and pin the new revision's digests in {table}; if not, "
        f"it is a defect."
    )


@pytest.mark.parametrize("name", list(PINNED.values())[-1])
def test_small_run_reproduces_pinned_digests(name, tmp_path):
    _check_pinned_run(PINNED, "PINNED", name, tmp_path, dataset=DATASET)


@pytest.mark.parametrize("name", list(PINNED_WIDE.values())[-1])
def test_a_batch_space_run_reproduces_pinned_digests(name, tmp_path):
    _check_pinned_run(PINNED_WIDE, "PINNED_WIDE", name, tmp_path,
                      dataset=WIDE_DATASET, k_dim=2, enc_hidden="4")


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
