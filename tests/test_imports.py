"""Importing a module loads only what that module needs.

Each case runs in a fresh interpreter, since this process has long since
imported scipy through other tests.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CASES = [
    ("geoib.rng, geoib.config, geoib.data, geoib.encoder, geoib.nets, "
     "geoib.discrete_info", "scipy"),
    ("geoib.training", "scipy.integrate"),
    ("geoib.cli", "scipy.integrate"),
    ("geoib.training", "scipy.spatial"),
    ("geoib.training", "concurrent.futures.thread"),
    ("geoib.verify", "scipy.integrate"),
    ("geoib.training, geoib.verify", "scipy.special"),
    ("geoib.training, geoib.verify", "scipy.optimize"),
    # LAPACK is reached through scipy's bundled library, not scipy.linalg
    ("geoib.training, geoib.verify", "scipy.linalg"),
    ("geoib.cli", "scipy.linalg"),
]


def _fresh_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("modules, absent", CASES,
                         ids=["numpy_only", "training", "cli", "training_spatial",
                              "training_thread_pool", "verify",
                              "training_verify_special",
                              "training_verify_optimize",
                              "training_verify_linalg", "cli_linalg"])
def test_import_leaves_module_unloaded(modules, absent):
    out = _fresh_python(f"import sys, {modules}; print({absent!r} in sys.modules)")
    assert out == "False", f"import {modules} loaded {absent}"


def test_the_property_suite_runs_without_scipy_linalg():
    # every check's solves, factors and log-determinants go through the
    # bundled library's LAPACK
    out = _fresh_python(
        "import sys, geoib.training, geoib.verify\n"
        "from geoib.verify import run_all_checks\n"
        "assert all(r.passed for r in run_all_checks(seed=0))\n"
        "print('scipy.linalg' in sys.modules)")
    assert out == "False", "run_all_checks(seed=0) loaded scipy.linalg"


def test_a_training_run_with_evaluation_loads_no_scipy_package():
    # the KSG estimator loads scipy's distance kernel without importing
    # scipy.spatial, and computes digamma itself
    out = _fresh_python(
        "import sys\n"
        "from geoib.config import TrainConfig\n"
        "from geoib.training import run_training\n"
        "assert run_training(TrainConfig(epochs=1)).point is not None\n"
        "print(sorted(m for m in ('scipy.spatial', 'scipy.special', "
        "'scipy.sparse', 'scipy.linalg') if m in sys.modules))")
    assert out == "[]", f"run_training loaded {out}"
