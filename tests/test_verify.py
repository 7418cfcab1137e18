"""The property suite's own oracles, against the test suite's."""

import numpy as np

from geoib import training, verify
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


def _semi_gradient(net, log_var, probes, upstream=None, weight=1.0):
    # the penalty's gradient with the noise variances held constant: the
    # JVP path alone, without the term through the log-variances
    k = log_var.shape[1]
    u, cache = net.jvp_captured(probes)
    q = u[:, :, :k] / np.exp(log_var)
    u_bar = np.zeros_like(u)
    u_bar[:, :, :k] = (2.0 * weight / u.shape[0]) * q
    values = np.sum(u[:, :, :k] * q, axis=2).mean(axis=0)
    return values, net.jvp_adjoint(cache, u_bar, upstream)


def test_gradient_check_covers_the_penalty_through_the_noise_scale(
        monkeypatch):
    # the check differentiates the reported total with the noise taken from
    # the log-variances, so a gradient that holds the noise fixed fails it
    assert verify.check_gradients_fd(seed=0).passed
    monkeypatch.setattr(training, "jf_value_and_grad", _semi_gradient)
    assert not verify.check_gradients_fd(seed=0).passed
