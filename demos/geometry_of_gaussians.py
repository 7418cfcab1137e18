"""
Fisher-Rao geometry of a 1-D Gaussian, step by step
===================================================

The (mu, sigma) half-plane carries the Fisher metric diag(1/s^2, 2/s^2).
This script walks the three facts the optimizer leans on: KL is half a
squared FR distance to second order, the exponential map follows the
hyperbolic geodesics, and a geodesic step agrees with the plain additive
step to first order in the step size.
"""

import numpy as np

from geoib.encoder import (
    Gaussian1D,
    exp_map_1d,
    fisher_metric_1d,
    fr_norm_1d,
    fr_second_order_gap,
    geodesic_vs_additive_gap,
    kl_to_standard_normal,
)

# --- the metric at a point ------------------------------------------------

p = Gaussian1D(mu=0.0, sigma=2.0)
print("metric at sigma=2:")
print(fisher_metric_1d(p))  # diag(1/4, 1/2): wide Gaussians are flat country

# --- KL vs. the quadratic proxy ------------------------------------------

# Halving the offset from the prior should cut the *gap* by ~8x (cubic).
print("\nKL - 0.5 d_FR^2 under offset halving:")
# The rates take (mu, log_var) arrays, the layout the encoder head emits;
# a 1-D pair is one posterior.
for delta in (0.2, 0.1, 0.05):
    mu, log_var = np.array([delta, -delta]), np.array([delta, delta])
    kl, _ = kl_to_standard_normal(mu, log_var)
    print(f"  delta={delta:<5} kl={kl:.6f}"
          f"  gap={fr_second_order_gap(mu, log_var):.3e}")

# --- the exponential map --------------------------------------------------

# A pure-sigma tangent rides the vertical geodesic: sigma scales by exp(w).
q = exp_map_1d(p, (0.0, 2.0 * 0.3))  # d sigma = 0.6 at sigma = 2
print(f"\nexp_map along sigma: sigma {p.sigma} -> {q.sigma:.6f}"
      f"  (2*exp(0.3) = {2 * np.exp(0.3):.6f})")

# Mixed tangents land on a semicircle centered on the mu-axis; the FR norm
# of the tangent is preserved as arc length.
w = (0.5, -0.25)
q = exp_map_1d(p, w)
print(f"exp_map along {w}: -> mu={q.mu:.6f} sigma={q.sigma:.6f}"
      f"  |w|_FR={fr_norm_1d(p, w):.6f}")

# --- geodesic vs. additive update ----------------------------------------

# gap(eta) = FR distance between exp_map(eta * nat-grad) and the additive
# step. First-order agreement means the ratio gap(eta)/gap(eta/2) ~ 4.
print("\ngeodesic vs additive step, euclidean grad (1.0, 1.5) at (0.5, 1):")
grad = np.array([1.0, 1.5])
start = Gaussian1D(0.5, 1.0)
gaps = [geodesic_vs_additive_gap(start, grad, eta)
        for eta in (0.1, 0.05, 0.025)]
for eta, gap in zip((0.1, 0.05, 0.025), gaps):
    print(f"  eta={eta:<6} gap={gap:.3e}")
print(f"  ratios: {gaps[0] / gaps[1]:.2f}, {gaps[1] / gaps[2]:.2f}"
      "  (quadratic decay -> ~4)")

# Too large a step in the additive parameterization can leave the manifold
# entirely (sigma <= 0); the geodesic never does.
try:
    geodesic_vs_additive_gap(Gaussian1D(0.0, 1.0), np.array([0.0, 4.0]), 1.0)
except ValueError as exc:
    print(f"\nadditive step with eta=1, d sigma=-4: {exc}")
