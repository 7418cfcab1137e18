"""Information-bottleneck training with natural-gradient geometry.

Over its numerics (rng, nets, linalg) the package has three layers: an
exact finite-distribution kernel (discrete_info) for checking the
projection identities behind the objective, differential-geometry pieces
(encoder, jf, fisher) for the penalties and the K-FAC preconditioner, and
a training harness (data, config, training, mi) that sweeps the
information plane.  `verify` ties them together into a deterministic
property suite; `cli` exposes it all as the `geoib` command.

The package root exports nothing: import each name from its module
(`from geoib.training import run_training`).
"""
