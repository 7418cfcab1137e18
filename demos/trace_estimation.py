"""
Bounding channel information with Jacobian traces
=================================================

For a Gaussian channel z = f(x) + noise, the information a small input
perturbation can push through f is bounded by a log-det capacity, which
is itself bounded by half the trace of the pullback metric.  The trace is
what we can afford during training, via Hutchinson probes and JVPs.
"""

import numpy as np

from geoib.jf import (
    LocalChannel,
    bound_chain_check,
    capacity_logdet,
    draw_probes,
    exact_trace,
    jf_hutchinson,
)
from geoib.nets import LayerSpec, Network
from geoib.rng import Rng

rng = Rng(7)

# --- the bound chain on one random channel --------------------------------

jac = rng.normal((3, 4))
chan = LocalChannel(jacobian=jac, noise_cov=np.array([1.0, 0.5, 2.0]))
lhs, mid, rhs = bound_chain_check(chan)
print("log det(I + J C J^T S^-1)/2  (output form) :", f"{lhs:.6f}")
print("log det(I + C J^T S^-1 J)/2  (input form)  :", f"{mid:.6f}")
print("Tr(S^-1 J J^T)/2             (trace bound) :", f"{rhs:.6f}")
print("output form == input form, trace dominates:", lhs <= rhs + 1e-12)

# The bound is tight when the stretched directions are weak:
small = LocalChannel(jacobian=0.05 * jac, noise_cov=np.ones(3))
print(f"\nweak channel: capacity={capacity_logdet(small):.6e}"
      f"  half-trace={0.5 * exact_trace(small):.6e}")

# --- estimating the trace without the Jacobian ----------------------------

# A two-layer net stands in for the encoder mean head.  The estimator only
# touches the net through JVPs, so it scales to nets where forming J is
# out of the question.
net = Network([LayerSpec(4, 8, "tanh"), LayerSpec(8, 3, "identity")], rng)
x = rng.normal(4)
noise = np.array([1.0, 0.5, 2.0])

exact = exact_trace(LocalChannel(net.explicit_jacobian(x), noise))
print(f"\nexact Tr(S^-1 J J^T) at one input: {exact:.6f}")
print("probes   estimate   |error|   3*SE")
for n_probes in (2, 8, 64, 512, 4096):
    value, per_probe = jf_hutchinson(net, x, noise, n_probes, Rng(0))
    se = float(np.std(per_probe, ddof=1) / np.sqrt(n_probes))
    print(f"{n_probes:>6}   {value:.6f}  {abs(value - exact):.2e}"
          f"  {3 * se:.2e}")

# --- probes are replayable ------------------------------------------------

# Probes are +-1 entries, one draw of packed sign bits from a keyed Philox
# stream, so a longer draw extends a shorter one, and a gradient evaluated
# on fixed probes can be replayed bit for bit.
p8 = draw_probes(Rng(0), 8, 1, 4)
p64 = draw_probes(Rng(0), 64, 1, 4)
print("\nfirst 8 of 64 probes match an 8-probe draw:",
      bool(np.array_equal(p64[:8], p8)))
