"""
Why precondition with the Fisher matrix
=======================================

Three small experiments: the natural direction is the steepest one when
lengths are measured in the Fisher metric, it is invariant to linear
reparameterizations of the model, and the K-FAC factorization with an
exact Kronecker-factored Cholesky solve recovers the dense solution without
ever forming the matrix.
"""

import numpy as np

from geoib.fisher import (
    fisher_vector_product,
    kfac_dense_matrix,
    kfac_init,
    kfac_update,
    natural_gradient,
    reparam_invariance_check,
    steepest_descent_margin,
)
from geoib.nets import LayerSpec, Network
from geoib.rng import Rng

rng = Rng(42)

# --- steepest descent under the metric ------------------------------------

# With F = diag(1, 100) the plain gradient over-steps the stiff coordinate.
# The natural direction F^-1 g rescales it away.
fisher = np.diag([1.0, 100.0])
grad = np.array([1.0, 1.0])
print("natural direction for F=diag(1,100), g=(1,1):",
      np.linalg.solve(fisher, grad))
margin = steepest_descent_margin(fisher, grad, n_dirs=20_000, rng=rng)
print(f"best random unit-FR direction vs natural, margin: {margin:.3e}"
      "  (>= 0: nothing beats it)")

# --- reparameterization invariance ----------------------------------------

# Stretch the parameter space by T; gradient and Fisher transform with it,
# and the natural update lands on the same point either way.
t = rng.normal((2, 2)) + 3.0 * np.eye(2)
gap = reparam_invariance_check(fisher, grad, t)
print(f"update mismatch across reparameterization by T: {gap:.3e}")

# --- exact Kronecker-factored Cholesky solve vs the dense matrix ----------

net = Network([LayerSpec(6, 5, "tanh"), LayerSpec(5, 3, "identity")], rng)
x = rng.normal((64, 6))
y = net.forward(x, capture=True)
# Pretend upstream gradients from a loss; any captured backward works here.
net.backward(rng.normal(y.shape))

state = kfac_init(net, damping=1e-3, ema_decay=0.95)
kfac_update(state, net)

g = rng.normal(net.n_params)
# Per layer: (G + lam I)^-1 grad (A + lam I)^-1 from two Cholesky factors.
step = natural_gradient(state, g)
print(f"\nKronecker-factored Cholesky solve over {net.n_params} parameters:"
      f" residual {step.residual:.2e}")

dense = kfac_dense_matrix(state)
direct = np.linalg.solve(dense, g)
print("max |Kronecker solve - dense solve|: "
      f"{np.max(np.abs(step.direction - direct)):.2e}")

v = rng.normal(net.n_params)
err = np.max(np.abs(fisher_vector_product(state, v) - dense @ v))
print(f"max |FVP - dense matvec|: {err:.2e}")
