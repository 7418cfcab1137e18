"""Jacobian-Frobenius capacity penalty and its estimators.

A stochastic encoder z = f(x) + eps with eps ~ N(0, diag(noise_cov)) acts
locally as a linear Gaussian channel with matrix J = df/dx.  Its capacity
is controlled by the chain

    0.5 logdet(I + S^-1/2 J C J^T S^-1/2)          (input covariance C <= I)
      <= 0.5 logdet(I + S^-1/2 J J^T S^-1/2)
       = 0.5 logdet(I + J^T S^-1 J)                (Sylvester)
      <= 0.5 tr(S^-1 J J^T) = 0.5 ||S^-1/2 J||_F^2

where S = diag(noise_cov).  Training penalizes the final Frobenius form,
estimated without materializing J by Hutchinson probes through forward-mode
Jacobian-vector products: ||S^-1/2 J v||^2 averaged over Rademacher probes
v (independent +-1 entries, E[v v^T] = I) is an unbiased estimate of the
trace.  With M = J^T S^-1 J its per-probe variance is
2(||M||_F^2 - sum_j M_jj^2), below the 2||M||_F^2 of Gaussian probes
(Avron & Toledo 2011), and on a diagonal M every probe returns the exact
trace.  One or two probes per step suffice in practice.  The exact forms
here exist to verify the estimator and the bound chain; none of them
appear on the training path.  In training S is the encoder's own,
exp of its clamped log-variance head, and `jf_value_and_grad`
differentiates the penalty through J and through S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import LOG_VAR_MAX, LOG_VAR_MIN, SIGMA_SQ_FLOOR
from .linalg import logdet_psd


@dataclass(frozen=True)
class LocalChannel:
    """A linearized encoder at one input: z = J x + eps.

    Attributes:
        jacobian: (out, in) matrix J.
        noise_cov: (out,) diagonal of the noise covariance, floored at
            SIGMA_SQ_FLOOR on construction.
        input_cov: optional (in, in) symmetric input covariance with
            eigenvalues in [0, 1].
    """

    jacobian: np.ndarray
    noise_cov: np.ndarray
    input_cov: np.ndarray | None = None

    def __post_init__(self):
        j = np.asarray(self.jacobian, dtype=np.float64)
        if j.ndim != 2:
            raise ValueError(f"jacobian must be 2-D, got shape {j.shape}")
        nc = np.asarray(self.noise_cov, dtype=np.float64)
        if nc.shape != (j.shape[0],):
            raise ValueError(
                f"noise_cov must have shape ({j.shape[0]},), got {nc.shape}"
            )
        if not np.all(np.isfinite(nc)):
            raise ValueError("noise_cov must be finite")
        object.__setattr__(self, "jacobian", j)
        object.__setattr__(self, "noise_cov", np.maximum(nc, SIGMA_SQ_FLOOR))
        if self.input_cov is not None:
            c = np.asarray(self.input_cov, dtype=np.float64)
            if c.shape != (j.shape[1], j.shape[1]):
                raise ValueError(
                    f"input_cov must have shape ({j.shape[1]}, {j.shape[1]}), got {c.shape}"
                )
            if np.max(np.abs(c - c.T)) > 1e-10:
                raise ValueError("input_cov must be symmetric")
            eig = np.linalg.eigvalsh(c)
            if eig[0] < -1e-10 or eig[-1] > 1.0 + 1e-10:
                raise ValueError(
                    f"input_cov eigenvalues must lie in [0, 1], got range "
                    f"[{eig[0]:.3e}, {eig[-1]:.3e}]"
                )
            object.__setattr__(self, "input_cov", c)


def exact_trace(ch: LocalChannel) -> float:
    """0.5-free trace form tr(S^-1 J J^T), computed row by row."""
    inv = 1.0 / ch.noise_cov
    return float(np.sum((ch.jacobian**2).sum(axis=1) * inv))


def capacity_logdet(ch: LocalChannel) -> float:
    """0.5 logdet(I + S^-1/2 J C J^T S^-1/2); C defaults to the identity."""
    d = 1.0 / np.sqrt(ch.noise_cov)
    jw = d[:, None] * ch.jacobian
    if ch.input_cov is None:
        core = jw @ jw.T
    else:
        core = jw @ ch.input_cov @ jw.T
    m = np.eye(ch.jacobian.shape[0]) + 0.5 * (core + core.T)
    return 0.5 * logdet_psd(m)


def bound_chain_check(ch: LocalChannel) -> tuple[float, float, float]:
    """The three capacity bounds at C = I.

    Returns:
        (half_logdet_out, half_logdet_in, half_trace): the logdet in output
        space, the same determinant moved to input space by the Sylvester
        identity, and the trace bound.  In exact arithmetic the first two
        are equal and the third dominates.
    """
    d = 1.0 / np.sqrt(ch.noise_cov)
    jw = d[:, None] * ch.jacobian          # S^-1/2 J
    out_form = np.eye(jw.shape[0]) + jw @ jw.T
    in_form = np.eye(jw.shape[1]) + jw.T @ jw
    half_out = 0.5 * logdet_psd(0.5 * (out_form + out_form.T))
    half_in = 0.5 * logdet_psd(0.5 * (in_form + in_form.T))
    half_trace = 0.5 * exact_trace(ch)
    return half_out, half_in, half_trace


def draw_probes(rng, n_probes: int, batch: int, dim: int) -> np.ndarray:
    """(n_probes, batch, dim) Rademacher (+-1 float64) probes, one draw
    from `rng`.

    Hutchinson's estimator needs only i.i.d. probes with E[v v^T] = I, and
    all S*B of them go through one folded JVP pass, so they come as one
    block of S*B*dim packed sign bits from the stream handed in (the
    step's stream in training; `Rng.signs`).  The draw advances that
    stream; drawing more probes extends the block without changing its
    leading probes.
    """
    if n_probes <= 0:
        raise ValueError(f"n_probes must be positive, got {n_probes}")
    return rng.signs((n_probes, batch, dim))


def jf_batch(net, noise_cov, probes, head_dim: int | None = None):
    """Per-sample Hutchinson estimates at the captured batch with explicit
    probes.

    Like `Network.backward`, it requires a preceding
    `net.forward(x, capture=True)` with the parameters unchanged since: the
    JVPs read that pass (`Network.jvp_captured`).

    Args:
        net: network whose leading `head_dim` outputs form the mean map.
        noise_cov: (B, head) or (head,) diagonal noise variances.
        probes: (S, B, in_dim) tangent probes, e.g. from `draw_probes`.
        head_dim: number of leading outputs that constitute the map; the
            rest (a log-variance head, say) carry no penalty.

    Returns:
        (values, per_probe): values is (B,) with the probe-averaged estimate
        per sample; per_probe is (S,) with batch means per probe.
    """
    head = net.out_dim if head_dim is None else head_dim
    if not 0 < head <= net.out_dim:
        raise ValueError(f"head_dim must be in (0, {net.out_dim}], got {head_dim}")
    u, _ = net.jvp_captured(probes)
    nc = np.maximum(np.asarray(noise_cov, dtype=np.float64), SIGMA_SQ_FLOOR)
    if nc.shape not in ((head,), (u.shape[1], head)):
        raise ValueError(f"noise_cov must broadcast to ({u.shape[1]}, {head}), "
                         f"got {nc.shape}")
    u_head = u[:, :, :head]
    per_sample = np.sum(u_head * (u_head / nc), axis=2)
    return per_sample.mean(axis=0), per_sample.mean(axis=1)


def jf_hutchinson(net, x, noise_cov, n_probes: int, rng) -> tuple[float, np.ndarray]:
    """Estimate tr(S^-1 J J^T) at x by probing the Jacobian.

    Captures a forward pass at x for `jf_batch`, which replaces the net's
    capture.

    Args:
        net: the mean map; every output carries the penalty.
        x: a single (in_dim,) input or a (B, in_dim) batch; with a batch the
            value is the batch mean.
        noise_cov: diagonal noise variances, per sample or shared.
        n_probes: probe count S.
        rng: probe source; the probes are one `draw_probes` block from it.

    Returns:
        (value, per_probe): the batch-mean value and the (n_probes,) means.
    """
    x = np.asarray(x, dtype=np.float64)
    xb = x[None, :] if x.ndim == 1 else x
    probes = draw_probes(rng, n_probes, xb.shape[0], xb.shape[1])
    net.forward(xb, capture=True)
    values, per_probe = jf_batch(net, noise_cov, probes)
    return float(values.mean()), per_probe


def jf_value_and_grad(net, log_var, probes, upstream=None, weight: float = 1.0):
    """Batch JF estimate of a posterior-head encoder at the captured batch,
    with the bits `jf_batch` gives at noise_cov = exp(log_var), and the
    parameter gradient of weight * sum_i values_i, plus that of
    sum(upstream * output) when `upstream` is given.

    The net's outputs are [mu | raw log-variance] (`posterior_head`): the
    penalty's map is mu and its noise s = exp(log_var), and the gradient
    runs through both.  The noise's part, d/dlv_k = -mean_s u_sk^2 / s_k,
    joins the output adjoint's log-variance columns where the clamp is
    open; q = u / s gives it, the values and the tangent adjoint.  Both
    gradients come from one reverse pass (`Network.jvp_adjoint`) over the
    captured pass, so a caller with an output adjoint of its own (the
    loss's) runs no `backward` of its own.

    Args:
        net: network with 2K outputs.
        log_var: (B, K) log-variances of the captured output, clamped as
            `posterior_head` clamps them; a value at a bound passes no
            gradient.
        probes: (S, B, in_dim) tangent probes, e.g. from `draw_probes`.
        upstream: (B, 2K) adjoint of the captured output, as in
            `Network.backward`, or None; it is not modified.
        weight: the penalty's coefficient in the gradient.

    Returns:
        (values, grad): values is (B,) per-sample estimates; grad is the
        flat parameter gradient (sum convention, like `Network.backward`).
    """
    u, cache = net.jvp_captured(probes)
    k = net.out_dim // 2
    if net.out_dim != 2 * k or np.shape(log_var) != (u.shape[1], k):
        raise ValueError(f"log_var must be ({u.shape[1]}, {k}) for a net with "
                         f"{net.out_dim} outputs, got {np.shape(log_var)}")
    u_head = u[:, :, :k]
    q = u_head / np.exp(log_var)
    sq = u_head * q
    values = np.sum(sq, axis=2).mean(axis=0)
    u_bar = np.zeros_like(u)
    # the adjoint sums over the folded S*B axis; the 1/S leaves the probe
    # average in the same sum-over-batch convention as backward
    u_bar[:, :, :k] = (2.0 * weight / u.shape[0]) * q
    up = (np.zeros((u.shape[1], net.out_dim)) if upstream is None
          else np.array(upstream, dtype=np.float64))
    clamp_open = (log_var > LOG_VAR_MIN) & (log_var < LOG_VAR_MAX)
    up[:, k:] -= weight * sq.mean(axis=0) * clamp_open
    return values, net.jvp_adjoint(cache, u_bar, up)
