"""The property suite's own oracles, against the test suite's."""

import numpy as np

from geoib.encoder import Gaussian1D
from geoib.rng import Rng
from geoib.verify import _geodesic_ode
from oracles import geodesic_endpoint


def test_geodesic_integrator_matches_the_solve_ivp_oracle():
    """Twenty points drawn as `check_geodesic` draws them: the in-module
    integrator and scipy's adaptive RK45 reach the same endpoint to 1e-10."""
    rng = Rng(41)
    worst = 0.0
    for _ in range(20):
        p = Gaussian1D(mu=float(rng.uniform(-1.0, 1.0)),
                       sigma=float(np.exp(rng.uniform(-0.7, 0.7))))
        tangent = rng.normal(2)
        got = _geodesic_ode(p, tangent)
        mu, sigma = geodesic_endpoint(p.mu, p.sigma, tangent[0], tangent[1],
                                      rtol=1e-13, atol=1e-15)
        worst = max(worst, abs(got.mu - mu), abs(got.sigma - sigma))
    assert worst < 1e-10
