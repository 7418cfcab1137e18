"""Test-session set-up: numpy's BLAS runs on one thread.

On a 2-core machine OpenBLAS's default of one thread per core makes the
K-FAC linear algebra slower, not faster: one geoib epoch on the digit
corpus of the acceptance gate took 7.2 s at the default and 2.5 s on one
thread.  pytest loads this file before it imports any test module, so the
variables are set before numpy first loads; values already set in the
environment win.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
