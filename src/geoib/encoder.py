"""Diagonal Gaussian posteriors and their information geometry.

The compression term of the training objective is the KL divergence of the
posterior q(z|x) = N(mu, diag(sigma^2)) from the standard normal prior,
available in closed form, together with its second-order Fisher-Rao proxy
0.5 ||mu||^2 + 0.25 ||log sigma^2||^2 which agrees with the KL to cubic
order around (mu=0, sigma^2=1).

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


@dataclass(frozen=True)
class DiagonalGaussian:
    """N(mu, diag(exp(log_var))) with log_var clamped to [-12, 12].

    Construction clamps, so any value produced by a network output obeys the
    bound by the time it is used.
    """

    mu: np.ndarray
    log_var: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        lv = np.asarray(self.log_var, dtype=np.float64)
        if mu.ndim != 1 or lv.ndim != 1 or mu.shape != lv.shape:
            raise ValueError(
                f"mu and log_var must be matching 1-D arrays, got {mu.shape} and {lv.shape}"
            )
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(lv))):
            raise ValueError("mu and log_var must be finite")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "log_var", np.clip(lv, LOG_VAR_MIN, LOG_VAR_MAX))

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @property
    def sigma(self) -> np.ndarray:
        return np.exp(0.5 * self.log_var)


def clamp_log_var(raw) -> np.ndarray:
    """Clamp raw network log-variance output into [-12, 12] elementwise."""
    return np.clip(np.asarray(raw, dtype=np.float64), LOG_VAR_MIN, LOG_VAR_MAX)


def kl_to_standard_normal(q: DiagonalGaussian) -> float:
    """KL(q || N(0, I)) = 0.5 sum(mu^2 + sigma^2 - log sigma^2 - 1).

    The mean and variance sums are kept separate so that at sigma^2 = 1 the
    result equals the quadratic proxy bit for bit.
    """
    var = np.exp(q.log_var)
    return float(0.5 * np.sum(q.mu**2) + 0.5 * np.sum(var - q.log_var - 1.0))


def fr_quadratic_proxy(q: DiagonalGaussian) -> float:
    """Second-order expansion of the KL at (mu=0, sigma^2=1):
    0.5 ||mu||^2 + 0.25 ||log sigma^2||^2."""
    return float(0.5 * np.sum(q.mu**2) + 0.25 * np.sum(q.log_var**2))


def fr_second_order_gap(q: DiagonalGaussian) -> float:
    """|KL - quadratic proxy|; decays cubically in the offset from the prior."""
    return abs(kl_to_standard_normal(q) - fr_quadratic_proxy(q))


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
