"""Independent numerical oracles for the test suite.

Nothing in here imports from the package's numerical routines: eigenvalues
come from a hand-rolled Jacobi sweep, geodesics from a generic ODE
integrator, distances from the closed-form hyperbolic formula, KSG
neighbor counts from k-d tree queries, and the ridge probe's readout from
one least-squares solve of the whole stacked system, so a bug in the
library cannot hide by agreeing with itself.  The exceptions are kept
verbatim as references their replacements must match bit for bit:
`fisher_capture_two_forward`, the K-FAC capture with both networks run
forward again rather than reusing the loss's passes (with the package's
posterior head and backward passes), and
`render_digit_meshgrid` / `densify_per_segment`, the digit renderer as it
ran before its distances became separable and its resampling one pass
(with the package's stroke table), and `projection_margins_loop` /
`pythagorean_residual_by_parts`, the discrete-information checks as they
ran before kl_to_product took stacks (with the package's joint draws and
i-projection, and the masked sums of that time written out), and
`replicated_jvp`, the JVP and its adjoint with the tangent track run over
S copies of each row's primal values, as they ran before the tangents read
the captured forward pass (with the package's activation table), and
`jf_value_and_grad_replicated`, the Jacobian penalty's gradient route as it
ran before it read the loss's captured pass (with `replicated_jvp` for its
JVP, and the penalty's term through the noise scale as the package forms
it), each also in the order of the time before one reverse pass formed
the loss's encoder gradient and the penalty's together, and
`backward_by_layer`, the backward pass as it ran before the activation
derivatives were kept by the captured forward pass.  `sampled_capture`
is the K-FAC capture as it ran before it took the model's exact output
Fisher: one sampled class and one fresh code per row, whose factors the
exact ones are the expectation of.
"""

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.spatial import cKDTree
from scipy.special import digamma

from geoib.data import _DIGIT_STROKES, _GRID
from geoib.discrete_info import i_projection
from geoib.encoder import LOG_VAR_MAX, LOG_VAR_MIN, posterior_head
from geoib.nets import _TABLE, layer_blocks
from geoib.rng import Rng
from geoib.verify import _random_joint


def jacobi_eigenvalues(m, max_sweeps: int = 100, tol: float = 1e-14) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Rotates away the largest off-diagonal entries until the off-diagonal
    Frobenius mass falls below tol times the matrix norm.  Intended for the
    tiny matrices the tests use (<= 8x8); returns eigenvalues sorted
    ascending.
    """
    a = np.array(m, dtype=np.float64, copy=True)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"matrix must be square, got {a.shape}")
    scale = max(float(np.linalg.norm(a)), 1.0)
    for _ in range(max_sweeps):
        off = np.sqrt(max(np.sum(a**2) - np.sum(np.diag(a) ** 2), 0.0))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= 1e-300:
                    continue
                # classic symmetric Schur rotation annihilating a[p, q]
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def central_difference(f, x, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        up, dn = x.copy(), x.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2.0 * h)
    return g


def geodesic_endpoint(mu, sigma, dmu, dsigma, rtol=1e-11, atol=1e-13):
    """Integrate the Fisher-Rao geodesic of N(mu, sigma^2) for unit time.

    The metric diag(1/sigma^2, 2/sigma^2) gives the geodesic equations
    mu'' = 2 mu' sigma' / sigma and sigma'' = (sigma'^2 - mu'^2/2) / sigma
    (Euler-Lagrange of the energy functional, derived by hand).  At the
    default tolerances the endpoint is within about 2e-10 of the closed
    form; rtol=1e-13, atol=1e-15 bring that near 2e-12.

    Returns:
        (mu_1, sigma_1) at t = 1.
    """

    def rhs(_t, s):
        _m, sg, dm, ds = s
        return [dm, ds, 2.0 * dm * ds / sg, (ds**2 - 0.5 * dm**2) / sg]

    sol = solve_ivp(rhs, (0.0, 1.0), [mu, sigma, dmu, dsigma],
                    rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"geodesic integration failed: {sol.message}")
    return float(sol.y[0, -1]), float(sol.y[1, -1])


def fr_distance_1d(mu1, sigma1, mu2, sigma2) -> float:
    """Closed-form Fisher-Rao distance between univariate Gaussians.

    In coordinates x = mu / sqrt(2), y = sigma the metric is twice the
    hyperbolic half-plane metric, so the distance is sqrt(2) times the
    standard half-plane formula.
    """
    x1, y1 = mu1 / np.sqrt(2.0), sigma1
    x2, y2 = mu2 / np.sqrt(2.0), sigma2
    arg = 1.0 + ((x2 - x1) ** 2 + (y2 - y1) ** 2) / (2.0 * y1 * y2)
    return float(np.sqrt(2.0) * np.arccosh(arg))


def gaussian_kl_quadrature(mu: float, var: float) -> float:
    """KL(N(mu, var) || N(0, 1)) by numeric quadrature of the integrand."""

    def integrand(z):
        q = np.exp(-0.5 * (z - mu) ** 2 / var) / np.sqrt(2.0 * np.pi * var)
        log_ratio = (-0.5 * (z - mu) ** 2 / var - 0.5 * np.log(var)) \
            - (-0.5 * z**2)
        return q * log_ratio

    lo = mu - 12.0 * np.sqrt(var)
    hi = mu + 12.0 * np.sqrt(var)
    value, _err = quad(integrand, lo, hi, limit=200)
    return float(value)


def ksg_tree_reference(x, z, k: int = 5) -> float:
    """KSG (variant 1, Chebyshev norm) with k-d tree neighbor queries.

    The tree-based estimator the package used before its blocked scan, kept
    verbatim as the reference that the scan must match bit for bit.
    """
    xa = np.asarray(x, dtype=np.float64)
    za = np.asarray(z, dtype=np.float64)
    xa = xa[:, None] if xa.ndim == 1 else xa
    za = za[:, None] if za.ndim == 1 else za
    n = xa.shape[0]
    joint = np.concatenate([xa, za], axis=1)
    tree = cKDTree(joint)
    dist, _ = tree.query(joint, k=k + 1, p=np.inf)
    eps = dist[:, k]
    # Count strictly inside eps: shrink the radius by one ulp so the
    # inclusive ball query acts as a strict inequality.
    radius = np.nextafter(eps, 0.0)
    tx = cKDTree(xa)
    tz = cKDTree(za)
    nx = np.asarray(tx.query_ball_point(xa, radius, p=np.inf, return_length=True))
    nz = np.asarray(tz.query_ball_point(za, radius, p=np.inf, return_length=True))
    nx = nx - 1  # the point itself always lands in its own ball
    nz = nz - 1
    degenerate = eps == 0.0
    if np.any(degenerate):
        nx = np.where(degenerate, 0, nx)
        nz = np.where(degenerate, 0, nz)
    value = (digamma(k) + digamma(n)
             - float(np.mean(digamma(nx + 1) + digamma(nz + 1))))
    return float(value)


def ridge_probe_reference(z_train, x_train, z_test, x_test, w, b,
                          noise: float) -> float:
    """Held-out MSE of the random-feature ridge probe, from one dense solve.

    Builds every feature row at once, centred by the train mean, and solves
    the ridge problem as ordinary least squares on the system stacked with
    sqrt(n) * noise * I below the feature columns (the intercept column
    gets a zero there, so it stays unpenalized).  No normal equations and
    no row blocks.
    """
    z_tr = np.asarray(z_train, dtype=np.float64)
    z_te = np.asarray(z_test, dtype=np.float64)
    x_tr = np.asarray(x_train, dtype=np.float64)
    x_te = np.asarray(x_test, dtype=np.float64)
    mean = z_tr.mean(axis=0)
    n, m = z_tr.shape[0], w.shape[1]

    def design(z):
        return np.hstack([np.tanh((z - mean) @ w + b), np.ones((z.shape[0], 1))])

    prior = np.hstack([np.sqrt(n) * noise * np.eye(m), np.zeros((m, 1))])
    a = np.vstack([design(z_tr), prior])
    y = np.vstack([x_tr, np.zeros((m, x_tr.shape[1]))])
    coef = np.linalg.lstsq(a, y, rcond=None)[0]
    return float(np.mean((design(z_te) @ coef - x_te) ** 2))


def fisher_capture_two_forward(enc, dec, x, eps, k_dim: int) -> None:
    """Refresh the captured backward statistics with the decoder's exact
    output Fisher rows sqrt(C p_c) (e_c - p) and the encoder's score at
    the codes z = mu + sigma * eps, running both networks forward again."""
    mu, lv, clamp_open = posterior_head(enc.forward(x, capture=True), k_dim)
    sig = np.exp(0.5 * lv)
    logits = dec.forward(mu + sig * eps, capture=True)
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    p = np.exp(logits - lse[:, None])
    n_classes = p.shape[1]
    root_p = np.sqrt(n_classes * p)[:, :, None]
    dec.backward_deltas(root_p * (np.eye(n_classes) - p[:, None, :]))
    up_enc = np.zeros((x.shape[0], 2 * k_dim))
    up_enc[:, :k_dim] = eps / sig
    up_enc[:, k_dim:] = 0.5 * (eps**2 - 1.0) * clamp_open
    enc.backward(up_enc)


def sampled_capture(enc, dec, logits, sig, clamp_open, step_rng) -> None:
    """Refresh the captured backward statistics with model-sampled targets:
    decoder targets y ~ p(y|z) at the step's codes z = mu + sigma * eps,
    encoder scores at fresh codes z ~ q(.|x).

    It runs no forward pass: it backpropagates through the captured
    forward passes whose decoder output is `logits`, with the posterior
    head's `sig` and `clamp_open` of that pass.
    """
    batch = logits.shape[0]
    m = logits.max(axis=1, keepdims=True)
    p = np.exp(logits - m)
    p /= p.sum(axis=1, keepdims=True)
    u = step_rng.substream(771).uniform(0.0, 1.0, (batch, 1))
    y_samp = (p.cumsum(axis=1) > u).argmax(axis=1)
    up_dec = p.copy()
    up_dec[np.arange(batch), y_samp] -= 1.0
    dec.backward_deltas(up_dec)
    k_dim = sig.shape[1]
    eps2 = step_rng.substream(772).normal((batch, k_dim))
    up_enc = np.zeros((batch, 2 * k_dim))
    up_enc[:, :k_dim] = eps2 / sig
    up_enc[:, k_dim:] = 0.5 * (eps2**2 - 1.0) * clamp_open
    enc.backward_deltas(up_enc)


def densify_per_segment(points: np.ndarray, step: float = 0.02) -> np.ndarray:
    """Resample a polyline at roughly uniform arc-length spacing."""
    out = []
    for a, b in zip(points[:-1], points[1:]):
        seg = np.linalg.norm(b - a)
        k = max(int(np.ceil(seg / step)), 1)
        t = np.linspace(0.0, 1.0, k, endpoint=False)
        out.append(a[None, :] + t[:, None] * (b - a)[None, :])
    out.append(points[-1:])
    return np.concatenate(out, axis=0)


def render_digit_meshgrid(digit: int, rng) -> np.ndarray:
    """One 28x28 grayscale image of `digit` with random pose and pen.

    Strokes are jittered by a random rotation, anisotropic scale, shear,
    and translation about the glyph center, then splatted with a Gaussian
    pen onto the pixel grid.

    Returns:
        (28, 28) uint8 image, background 0.
    """
    if digit not in _DIGIT_STROKES:
        raise ValueError(f"digit must be 0..9, got {digit}")
    angle = rng.uniform(-0.21, 0.21)
    scale = rng.uniform(0.85, 1.12, 2)
    shear = rng.uniform(-0.15, 0.15)
    shift = rng.uniform(-0.07, 0.07, 2)
    width = rng.uniform(0.030, 0.045)
    contrast = rng.uniform(0.82, 1.0)
    ca, sa = np.cos(angle), np.sin(angle)
    lin = np.array([[ca, -sa], [sa, ca]]) @ np.array([[scale[0], shear], [0.0, scale[1]]])

    centers = (np.arange(_GRID) + 0.5) / _GRID
    gx, gy = np.meshgrid(centers, centers)  # gy is the row (y) coordinate
    # exp is monotone: a pixel's ink comes from the nearest point of any stroke
    dense = np.concatenate([
        densify_per_segment((np.asarray(stroke, dtype=np.float64) - 0.5) @ lin.T + 0.5 + shift)
        for stroke in _DIGIT_STROKES[digit]
    ])
    d2 = (gx[:, :, None] - dense[None, None, :, 0]) ** 2 \
       + (gy[:, :, None] - dense[None, None, :, 1]) ** 2
    img = np.exp(-d2.min(axis=2) / (2.0 * width**2))
    img = contrast * img + 0.02 * rng.normal((_GRID, _GRID))
    return (np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)


def _masked_kl(p, ref) -> float:
    """sum p log(p / ref) over the cells where p > 0."""
    mask = p > 0.0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(ref[mask]))))


def kl_to_product_outer(p, qx, rz) -> float:
    """KL(p || qx x rz) from the full outer-product reference."""
    return _masked_kl(p, np.outer(qx, rz))


def pythagorean_residual_by_parts(p, qx, rz) -> float:
    """KL(p || q x r) - [I(p) + KL(p_x || q) + KL(p_z || r)], term by term."""
    px, pz = p.sum(axis=1), p.sum(axis=0)
    total = kl_to_product_outer(p, qx, rz)
    decomposed = (_masked_kl(p, np.outer(px, pz)) + _masked_kl(px, qx)
                  + _masked_kl(pz, rz))
    return float(total - decomposed)


def projection_margins_loop(seed: int, n_joints: int, n_perturb: int) -> np.ndarray:
    """Projection-optimality margins, one perturbation and one KL at a time."""
    rng = Rng(seed, stream=2)
    margins = np.empty((n_joints, n_perturb))
    for j in range(n_joints):
        p = _random_joint(rng)
        qx, rz = i_projection(p)
        base = kl_to_product_outer(p, qx, rz)
        for k in range(n_perturb):
            size = 10.0 ** rng.uniform(-3.0, -0.3)
            qp = qx * np.exp(size * rng.normal(qx.shape[0]))
            rp = rz * np.exp(size * rng.normal(rz.shape[0]))
            value = kl_to_product_outer(p, qp / qp.sum(), rp / rp.sum())
            margins[j, k] = value - base
    return margins


def replicated_jvp(net, x, probes, u_bar=None, upstream=None, fused=True):
    """J(x_i) v_si by a tangent pass over the S*B (probe, row) pairs, with
    the primal values of the B rows replicated S times, and, given u_bar,
    the parameter gradient of sum(upstream * net(x)) + sum(u_bar * u) by
    reverse mode over that pass.  The primal runs once, over the B rows.

    With `fused`, the primal-track adjoint is one (B, w) array per layer,
    seeded by `upstream` (zeros when None): at a nonlinear layer it takes
    the tangent track's term summed over a row's S probes, with f''
    applied after the sum, and an identity layer passes it through.
    Without it, the adjoint runs as it did before the loss's upstream
    joined it: per (probe, row) pair, with f'' applied to each pair,
    summed over the probes before the weight product, and `upstream` must
    be None.

    Args:
        x: (B, in) rows; probes: (S, B, in); u_bar: (S, B, out) or None;
        upstream: (B, out) or None.

    Returns:
        (u, grad): u is (S, B, out); grad is the flat gradient or None.
    """
    if upstream is not None and not fused:
        raise ValueError("the unfused adjoint takes no upstream")
    n_probes, batch = probes.shape[:2]

    def per_pair(a):
        """(B, w) values of the rows, repeated per probe as (S*B, w) pairs."""
        return np.broadcast_to(a, (n_probes, *a.shape)).reshape(
            n_probes * batch, -1)

    def derivative(table, l):
        """f' or f'' of layer l at the B rows, as a (B, w) array."""
        return np.broadcast_to(table(pre[l], acts[l + 1]), pre[l].shape)

    acts, pre = [x], []
    t = probes.reshape(n_probes * batch, -1)
    tangents, tan_pre = [t], []
    for l, (sp, blk) in enumerate(zip(net.specs, net.blocks)):
        f, df, _ = _TABLE[sp.activation]
        s = acts[-1] @ blk[:, :-1].T + blk[:, -1]
        pre.append(s)
        acts.append(f(s))
        ts = t @ blk[:, :-1].T
        tan_pre.append(ts)
        t = per_pair(derivative(df, l)) * ts
        tangents.append(t)
    u = t.reshape(n_probes, batch, -1)
    if u_bar is None:
        return u, None
    grad = np.empty_like(net.params)
    grad_blocks = layer_blocks(grad, net.shapes)
    rho = np.zeros((batch, net.out_dim)) if upstream is None else upstream
    a_bar = np.zeros((n_probes * batch, net.out_dim))
    t_bar = u_bar.reshape(n_probes * batch, -1)
    for l in range(net.n_layers - 1, -1, -1):
        sp = net.specs[l]
        _, df, ddf = _TABLE[sp.activation]
        d, dd = derivative(df, l), derivative(ddf, l)
        ts_bar = t_bar * per_pair(d)
        if not fused:
            s_bar = a_bar * per_pair(d) + t_bar * tan_pre[l] * per_pair(dd)
            r = s_bar.reshape(n_probes, batch, -1).sum(axis=0)
        elif sp.activation == "identity":
            r = rho
        else:
            t_sum = (t_bar * tan_pre[l]).reshape(n_probes, batch, -1).sum(axis=0)
            r = rho * d + t_sum * dd
        grad_blocks[l][:, :-1] = r.T @ acts[l] + ts_bar.T @ tangents[l]
        grad_blocks[l][:, -1] = r.sum(axis=0)
        if l > 0:
            w = net.blocks[l][:, :-1]
            if fused:
                rho = r @ w
            else:
                a_bar = s_bar @ w
            t_bar = ts_bar @ w
    return u, grad


def jf_value_and_grad_replicated(net, x, log_var, probes, upstream=None,
                                 weight=1.0, fused=True):
    """Per-sample JF estimates of a posterior-head encoder at x, noise
    exp(log_var), and the flat gradient of weight times their sum plus
    sum(upstream * net(x)), by `replicated_jvp`; the noise term of the
    log-variance columns joins the upstream.  Without `fused`, the two
    gradients come as they did before one reverse pass formed both:
    `backward_by_layer` for the upstream, plus weight times the unfused
    adjoint of the penalty."""
    k = log_var.shape[1]
    u, _ = replicated_jvp(net, x, probes)
    u_head = u[:, :, :k]
    q = u_head / np.exp(log_var)
    sq = u_head * q
    values = np.sum(sq, axis=2).mean(axis=0)
    up = (np.zeros((x.shape[0], net.out_dim)) if upstream is None
          else np.array(upstream, dtype=np.float64))
    clamp_open = (log_var > LOG_VAR_MIN) & (log_var < LOG_VAR_MAX)
    up[:, k:] -= weight * sq.mean(axis=0) * clamp_open
    u_bar = np.zeros_like(u)
    if fused:
        u_bar[:, :, :k] = (2.0 * weight / probes.shape[0]) * q
        return values, replicated_jvp(net, x, probes, u_bar, up)[1]
    u_bar[:, :, :k] = 2.0 * q
    grad = replicated_jvp(net, x, probes, u_bar, fused=False)[1] / probes.shape[0]
    return values, backward_by_layer(net, x, up)[0] + weight * grad


def backward_by_layer(net, x, upstream):
    """Gradients of sum(upstream * net(x)), one layer at a time.

    Returns:
        (grad, grads_pre, input_grad): the flat parameter gradient, the
        per-layer pre-activation gradients and d/dx.
    """
    acts, pre = [x], []
    for sp, blk in zip(net.specs, net.blocks):
        s = acts[-1] @ blk[:, :-1].T + blk[:, -1]
        pre.append(s)
        acts.append(_TABLE[sp.activation][0](s))
    grad = np.empty_like(net.params)
    grad_blocks = layer_blocks(grad, net.shapes)
    grads_pre = [None] * net.n_layers
    delta = upstream
    for l in range(net.n_layers - 1, -1, -1):
        d = _TABLE[net.specs[l].activation][1]
        delta = delta * d(pre[l], acts[l + 1])
        grads_pre[l] = delta
        grad_blocks[l][:, :-1] = delta.T @ acts[l]
        grad_blocks[l][:, -1] = delta.sum(axis=0)
        delta = delta @ net.blocks[l][:, :-1]
    return grad, grads_pre, delta
