"""Diagonal Gaussian posteriors and their information geometry.

The encoder's output rows are [mu | log sigma^2] of the posterior
q(z|x) = N(mu, diag(sigma^2)); `posterior_head` splits them and clamps the
log-variance.  The compression term of the training objective is the KL
divergence of the posterior from the standard normal prior, in closed
form, or its second-order Fisher-Rao proxy
0.5 ||mu||^2 + 0.25 ||log sigma^2||^2, which agrees with the KL to cubic
order around (mu=0, sigma^2=1).  Both rates take (mu, log_var) arrays and
return each row's rate with its log-variance gradient; training and
`verify` call these same functions.

For a single (mu, sigma) coordinate the Fisher-Rao metric is
diag(1/sigma^2, 2/sigma^2).  Rescaling mu by sqrt(2) turns this into twice
the hyperbolic half-plane metric, and a constant rescaling leaves geodesics
untouched, so the exponential map is computed exactly by classifying the
half-plane geodesic (vertical ray or semicircle centered on the boundary)
instead of integrating an ODE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOG_VAR_MIN = -12.0
LOG_VAR_MAX = 12.0
# Variance floor used wherever a sigma^2 appears in a denominator.
SIGMA_SQ_FLOOR = float(np.exp(LOG_VAR_MIN))


def posterior_head(out: np.ndarray, k_dim: int):
    """Split encoder output rows [mu | raw log-variance] into mu, the
    log-variance clamped to [LOG_VAR_MIN, LOG_VAR_MAX], and the mask of raw
    log-variances strictly inside the clamp, through which the clamp passes
    gradients."""
    raw_lv = out[:, k_dim:]
    clamp_open = (raw_lv > LOG_VAR_MIN) & (raw_lv < LOG_VAR_MAX)
    return out[:, :k_dim], np.clip(raw_lv, LOG_VAR_MIN, LOG_VAR_MAX), clamp_open


def kl_to_standard_normal(mu: np.ndarray, log_var: np.ndarray):
    """KL(N(mu, diag(exp(log_var))) || N(0, I)) per row,
    0.5 sum(mu^2 + sigma^2 - log sigma^2 - 1), and its gradient with
    respect to log_var; the gradient with respect to mu is mu.

    The mean and variance sums are kept separate so that at sigma^2 = 1 the
    rate equals the quadratic proxy bit for bit.
    """
    var = np.exp(log_var)
    rate = 0.5 * np.sum(mu**2, axis=-1) + 0.5 * np.sum(var - log_var - 1.0, axis=-1)
    return rate, 0.5 * (var - 1.0)


def fr_quadratic_proxy(mu: np.ndarray, log_var: np.ndarray):
    """Second-order expansion of the KL at (mu=0, sigma^2=1) per row,
    0.5 ||mu||^2 + 0.25 ||log sigma^2||^2, and its gradient with respect to
    log_var; the gradient with respect to mu is mu."""
    rate = 0.5 * np.sum(mu**2, axis=-1) + 0.25 * np.sum(log_var**2, axis=-1)
    return rate, 0.5 * log_var


def fr_second_order_gap(mu: np.ndarray, log_var: np.ndarray) -> np.ndarray:
    """|KL - quadratic proxy| per row; decays cubically in the offset from
    the prior."""
    return np.abs(kl_to_standard_normal(mu, log_var)[0]
                  - fr_quadratic_proxy(mu, log_var)[0])


# ---------------------------------------------------------------------------
# Univariate Gaussian manifold with the Fisher-Rao metric.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gaussian1D:
    """A point (mu, sigma), sigma > 0, on the univariate Gaussian manifold."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.sigma)):
            raise ValueError("mu and sigma must be finite")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


def fisher_metric_1d(p: Gaussian1D) -> np.ndarray:
    """Fisher information of N(mu, sigma^2) in (mu, sigma) coordinates."""
    return np.diag([1.0 / p.sigma**2, 2.0 / p.sigma**2])


def fr_norm_1d(p: Gaussian1D, tangent) -> float:
    """Fisher-Rao length of a (d_mu, d_sigma) tangent at p."""
    dmu, dsig = float(tangent[0]), float(tangent[1])
    return float(np.sqrt(dmu**2 + 2.0 * dsig**2) / p.sigma)


def exp_map_1d(p: Gaussian1D, tangent) -> Gaussian1D:
    """Riemannian exponential: follow the geodesic from p with the given
    initial velocity for unit time.

    Args:
        p: base point (mu, sigma).
        tangent: (d_mu, d_sigma) initial velocity in coordinates.

    Returns:
        The geodesic endpoint; sigma stays positive for every finite tangent.
    """
    dmu, dsig = float(tangent[0]), float(tangent[1])
    if not (np.isfinite(dmu) and np.isfinite(dsig)):
        raise ValueError("tangent must be finite")
    if dmu == 0.0 and dsig == 0.0:
        return p
    # Half-plane chart: x = mu / sqrt(2), y = sigma.  The metric becomes
    # 2 (dx^2 + dy^2) / y^2; the constant factor does not alter geodesics.
    x0, y0 = p.mu / np.sqrt(2.0), p.sigma
    wx, wy = dmu / np.sqrt(2.0), dsig
    if wx == 0.0:
        # Vertical geodesic: y scales exponentially in the velocity.
        return Gaussian1D(mu=p.mu, sigma=float(y0 * np.exp(wy / y0)))
    # Semicircle centered at (c, 0): tangency forces (x0 - c) wx + y0 wy = 0.
    c = x0 + y0 * wy / wx
    r = float(np.hypot(x0 - c, y0))
    theta0 = float(np.arctan2(y0, x0 - c))
    # Arc length along the circle satisfies dt = d(theta) / sin(theta), whose
    # antiderivative is log tan(theta/2); travel time equals the half-plane
    # speed |w| / y0.
    speed = float(np.hypot(wx, wy) / y0)
    orient = 1.0 if (-np.sin(theta0) * wx + np.cos(theta0) * wy) > 0.0 else -1.0
    half = np.tan(0.5 * theta0) * np.exp(orient * speed)
    theta1 = 2.0 * np.arctan(half)
    x1 = c + r * np.cos(theta1)
    y1 = r * np.sin(theta1)
    return Gaussian1D(mu=float(np.sqrt(2.0) * x1), sigma=float(y1))


def geodesic_vs_additive_gap(p: Gaussian1D, grad, eta: float) -> float:
    """Euclidean coordinate distance between the geodesic update and the
    additive natural-gradient update with step eta.

    Both updates move along the natural gradient F(p)^-1 grad; the additive
    one steps in coordinates and must keep sigma positive.

    Raises:
        ValueError: if the additive step leaves the manifold (sigma <= 0).
    """
    g = np.asarray(grad, dtype=np.float64)
    if g.shape != (2,):
        raise ValueError(f"grad must have shape (2,), got {g.shape}")
    nat = np.array([p.sigma**2 * g[0], 0.5 * p.sigma**2 * g[1]])
    geo = exp_map_1d(p, -eta * nat)
    add_mu = p.mu - eta * nat[0]
    add_sigma = p.sigma - eta * nat[1]
    if add_sigma <= 0.0:
        raise ValueError(
            f"additive step leaves the manifold: sigma = {add_sigma:.3e}"
        )
    return float(np.hypot(geo.mu - add_mu, geo.sigma - add_sigma))
