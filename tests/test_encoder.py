import numpy as np
import pytest

from geoib.encoder import (
    Gaussian1D,
    exp_map_1d,
    fisher_metric_1d,
    fr_norm_1d,
    fr_quadratic_proxy,
    fr_second_order_gap,
    geodesic_vs_additive_gap,
    kl_to_standard_normal,
    posterior_head,
)
from geoib.rng import Rng
from oracles import fr_distance_1d, gaussian_kl_quadrature, geodesic_endpoint


# ------------------------------------------------------------- posteriors


def test_posterior_head_clamps_log_var():
    out = np.array([[1.0, -2.0, -50.0, 0.0],
                    [3.0, 4.0, 40.0, -12.0]])
    mu, lv, clamp_open = posterior_head(out, 2)
    np.testing.assert_array_equal(mu, out[:, :2])
    np.testing.assert_array_equal(lv, [[-12.0, 0.0], [12.0, -12.0]])
    # a raw value on the bound is clamped too: no gradient passes there
    np.testing.assert_array_equal(clamp_open, [[False, True], [False, False]])


@pytest.mark.parametrize("rate", [kl_to_standard_normal, fr_quadratic_proxy])
def test_rate_log_var_gradient_matches_finite_differences(rate):
    rng = Rng(13)
    mu, lv = rng.normal((4, 3)), rng.normal((4, 3))
    values, grad = rate(mu, lv)
    assert values.shape == (4,) and grad.shape == (4, 3)
    h = 1e-6
    for j in range(3):
        up, dn = lv.copy(), lv.copy()
        up[:, j] += h
        dn[:, j] -= h
        fd = (rate(mu, up)[0] - rate(mu, dn)[0]) / (2 * h)
        np.testing.assert_allclose(grad[:, j], fd, rtol=1e-7, atol=1e-9)
    # the mean part of both rates is 0.5 ||mu||^2, so its gradient is mu
    shifted = mu.copy()
    shifted[:, 0] += h
    fd_mu = (rate(shifted, lv)[0] - values) / h
    np.testing.assert_allclose(fd_mu, mu[:, 0], rtol=1e-4, atol=1e-6)


# -------------------------------------------------------------------- kl


def test_kl_zero_at_prior():
    rate, grad = kl_to_standard_normal(np.zeros(4), np.zeros(4))
    assert rate == 0.0
    np.testing.assert_array_equal(grad, np.zeros(4))


def test_kl_unit_mean_offset():
    assert abs(kl_to_standard_normal(np.array([1.0, 0.0]), np.zeros(2))[0] - 0.5) < 1e-15


def test_kl_matches_monte_carlo():
    # E_q[log q - log p] estimated from 1e6 reparameterized draws
    mu, lv = np.array([1.0, 0.0]), np.zeros(2)
    eps = Rng(123).normal((1_000_000, 2))
    z = mu + np.exp(0.5 * lv) * eps
    log_ratio = 0.5 * np.sum(z**2 - (z - mu) ** 2 / np.exp(lv) - lv, axis=1)
    mc = float(log_ratio.mean())
    se = float(log_ratio.std(ddof=1) / np.sqrt(len(log_ratio)))
    closed = kl_to_standard_normal(mu, lv)[0]
    assert abs(mc - closed) < 0.01
    assert abs(mc - closed) < 3.0 * se


def test_kl_scaled_variance_against_quadrature():
    # sigma^2 = e in one coordinate: KL = (e - 2) / 2
    closed = kl_to_standard_normal(np.zeros(1), np.ones(1))[0]
    assert abs(closed - (np.e - 2.0) / 2.0) < 1e-15
    assert abs(closed - gaussian_kl_quadrature(0.0, np.e)) < 1e-9


def test_kl_nonnegative_and_zero_only_at_prior():
    rng = Rng(9)
    kl, _ = kl_to_standard_normal(0.5 * rng.normal((50, 3)), 0.5 * rng.normal((50, 3)))
    assert np.all(kl > 0.0)
    assert kl_to_standard_normal(np.zeros(3), np.zeros(3))[0] == 0.0


# ----------------------------------------------------------- proxy + gap


def test_proxy_closed_form_values():
    assert abs(fr_quadratic_proxy(np.array([0.1]), np.zeros(1))[0] - 0.005) < 1e-17
    assert abs(fr_quadratic_proxy(np.zeros(1), np.array([0.2]))[0] - 0.01) < 1e-17


def test_gap_zero_at_prior():
    assert fr_second_order_gap(np.zeros(3), np.zeros(3)) == 0.0


def test_gap_exactly_zero_for_pure_mean_offsets():
    # KL is exactly quadratic in mu, so the proxy is exact there
    gaps = fr_second_order_gap(Rng(10).normal((20, 4)), np.zeros((20, 4)))
    np.testing.assert_array_equal(gaps, np.zeros(20))


@pytest.mark.parametrize("delta", [0.2, 0.1, 0.05])
def test_gap_decays_cubically(delta):
    def gap(d):
        return fr_second_order_gap(np.array([d, -d]), np.array([d, d]))

    ratio = gap(delta) / gap(delta / 2.0)
    assert 6.0 <= ratio <= 10.0


# --------------------------------------------------------- 1-D geometry


def test_fisher_metric_1d_values():
    m = fisher_metric_1d(Gaussian1D(0.0, 2.0))
    np.testing.assert_array_equal(m, np.diag([0.25, 0.5]))


def test_gaussian_1d_rejects_bad_sigma():
    with pytest.raises(ValueError, match="positive"):
        Gaussian1D(0.0, -1.0)
    with pytest.raises(ValueError, match="positive"):
        Gaussian1D(0.0, 0.0)


def test_exp_map_zero_tangent_is_identity():
    p = Gaussian1D(1.5, 0.7)
    assert exp_map_1d(p, (0.0, 0.0)) is p


def test_exp_map_pure_sigma_is_exponential():
    # vertical geodesic from (0, 1): sigma moves to exp(d_sigma)
    for ds in (0.5, -0.5, 2.0):
        q = exp_map_1d(Gaussian1D(0.0, 1.0), (0.0, ds))
        assert q.mu == 0.0
        assert abs(q.sigma - np.exp(ds)) < 1e-12
        mu_o, sig_o = geodesic_endpoint(0.0, 1.0, 0.0, ds)
        assert abs(q.sigma - sig_o) < 1e-6


def test_exp_map_matches_geodesic_ode():
    rng = Rng(11)
    for _ in range(10):
        p = Gaussian1D(float(rng.normal(1)[0]),
                       float(np.exp(0.4 * rng.normal(1)[0])))
        t = 0.8 * rng.normal(2)
        q = exp_map_1d(p, t)
        mu_o, sig_o = geodesic_endpoint(p.mu, p.sigma, t[0], t[1])
        assert abs(q.mu - mu_o) < 1e-6
        assert abs(q.sigma - sig_o) < 1e-6


def test_exp_map_preserves_arc_length():
    # distance from p to exp_p(t) equals the Fisher-Rao norm of t
    rng = Rng(12)
    for _ in range(20):
        p = Gaussian1D(float(rng.normal(1)[0]),
                       float(np.exp(0.4 * rng.normal(1)[0])))
        t = rng.normal(2)
        q = exp_map_1d(p, t)
        dist = fr_distance_1d(p.mu, p.sigma, q.mu, q.sigma)
        assert abs(dist - fr_norm_1d(p, t)) < 1e-6


def test_exp_map_rejects_nonfinite_tangent():
    with pytest.raises(ValueError, match="finite"):
        exp_map_1d(Gaussian1D(0.0, 1.0), (np.inf, 0.0))


def test_fr_norm_1d_scalar_example():
    # at sigma = 1 the metric is diag(1, 2)
    assert abs(fr_norm_1d(Gaussian1D(0.0, 1.0), (3.0, 0.0)) - 3.0) < 1e-15
    assert abs(fr_norm_1d(Gaussian1D(0.0, 1.0), (0.0, 1.0)) - np.sqrt(2.0)) < 1e-15


# ------------------------------------------------- geodesic vs additive


def test_additive_gap_zero_step():
    p = Gaussian1D(0.3, 1.2)
    assert geodesic_vs_additive_gap(p, (1.0, 1.0), 0.0) == 0.0


def test_additive_gap_zero_grad():
    p = Gaussian1D(0.3, 1.2)
    assert geodesic_vs_additive_gap(p, (0.0, 0.0), 0.1) == 0.0


@pytest.mark.parametrize("eta", [0.1, 0.05, 0.025])
def test_additive_gap_decays_quadratically(eta):
    p = Gaussian1D(0.5, 1.0)
    grad = (1.0, 1.5)
    ratio = geodesic_vs_additive_gap(p, grad, eta) / geodesic_vs_additive_gap(
        p, grad, eta / 2.0
    )
    assert 3.5 <= ratio <= 4.5


def test_additive_gap_detects_manifold_exit():
    # large step drives the additive sigma negative; geodesic never does
    p = Gaussian1D(0.0, 1.0)
    with pytest.raises(ValueError, match="leaves the manifold"):
        geodesic_vs_additive_gap(p, (0.0, 4.0), 1.0)
    q = exp_map_1d(p, (0.0, -2.0 * 1.0**2 * 0.5 * 4.0))
    assert q.sigma > 0.0


def test_additive_gap_rejects_bad_grad_shape():
    with pytest.raises(ValueError, match="shape"):
        geodesic_vs_additive_gap(Gaussian1D(0.0, 1.0), (1.0, 2.0, 3.0), 0.1)
