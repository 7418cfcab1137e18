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
]


@pytest.mark.parametrize("modules, absent", CASES,
                         ids=["numpy_only", "training", "cli", "training_spatial",
                              "training_thread_pool", "verify",
                              "training_verify_special",
                              "training_verify_optimize"])
def test_import_leaves_module_unloaded(modules, absent):
    code = f"import sys, {modules}; print({absent!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False", f"import {modules} loaded {absent}"
