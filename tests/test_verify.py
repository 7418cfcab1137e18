"""The property suite's own oracles, against the test suite's."""

import numpy as np

from geoib import verify
from geoib.encoder import Gaussian1D
from geoib.nets import LayerSpec, Network
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


def _diagonal_net(rng):
    # a linear net with a diagonal Jacobian: every probe gives the trace
    net = Network([LayerSpec(3, 3, "identity")], rng)
    net.blocks[0][:, :-1] = np.diag(np.exp(rng.normal(3)))
    return net


def test_hutchinson_check_holds_a_zero_spread_estimate_to_round_off(
        monkeypatch):
    monkeypatch.setattr(verify, "_random_small_net", _diagonal_net)
    res = verify.check_hutchinson(seed=0)
    assert res.passed and "zero_spread=20" in res.metric
    # an exact value off by 1e-9 relative is outside the round-off bound
    exact_trace = verify.exact_trace
    monkeypatch.setattr(verify, "exact_trace",
                        lambda ch: exact_trace(ch) * (1.0 + 1e-9))
    assert not verify.check_hutchinson(seed=0).passed
