"""Deterministic property suite over the package's mathematical claims.

Each check regenerates its own random instances from a fixed seed, compares
against an independent route (dense solves, explicit Kronecker products,
numerically integrated geodesics, finite differences, exact traces), and
reports a scalar margin with a hard threshold.  Each check takes only a
seed: its sample sizes and bounds are the module constants below, which
the acceptance gate (tests/test_acceptance.py) pins to their values.
Results serialize to a file that contains no timing or environment
information, so two runs with the same seed produce byte-identical output.

The geodesic oracle is a Runge-Kutta integrator written here rather than
scipy.integrate, and the dense Fisher is assembled in numpy.  Importing
this module, or running every check, loads no scipy module: the checks'
Cholesky solves and log-determinants reach LAPACK through `linalg`, which
calls scipy's bundled OpenBLAS without importing scipy.linalg.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import discrete_info as di
from .encoder import (
    Gaussian1D,
    exp_map_1d,
    fr_quadratic_proxy,
    fr_second_order_gap,
    geodesic_vs_additive_gap,
    kl_to_standard_normal,
)
from .fisher import (
    fisher_vector_product,
    kfac_dense_matrix,
    kfac_init,
    kfac_update,
    natural_gradient,
    reparam_invariance_check,
    steepest_descent_margin,
)
from .jf import (
    LocalChannel,
    bound_chain_check,
    capacity_logdet,
    draw_probes,
    exact_trace,
    jf_hutchinson,
)
from .linalg import pin_blas_threads
from .nets import LayerSpec, Network, layer_blocks
from .rng import Rng
from .training import geoib_loss_and_grads

# Sample sizes and bounds, by check.
PYTHAGOREAN_JOINTS = 1000
PYTHAGOREAN_TOL = 1e-11
PROJECTION_JOINTS = 50
PROJECTION_PERTURB = 200
PROJECTION_SLACK = 1e-12
FR_GAP_DIRS = 20
FR_GAP_RATIO_LO, FR_GAP_RATIO_HI = 6.0, 10.0
BOUND_CHAIN_CHANNELS = 500
BOUND_CHAIN_EQ_TOL = 1e-10
BOUND_CHAIN_INEQ_TOL = 1e-12
HUTCHINSON_NETS = 20
HUTCHINSON_PROBES = 10_000
HUTCHINSON_REPS = 50
HUTCHINSON_REP_TOL = 0.01
HUTCHINSON_EXACT_TOL = 1e-12
GRADIENTS_FD_TOL = 1e-4
GRADIENTS_FD_STEP = 1e-5
CG_VS_DENSE_SOLVE_TOL = 1e-8
CG_VS_DENSE_FVP_TOL = 1e-12
STEEPEST_DESCENT_FISHERS = 20
STEEPEST_DESCENT_DIRS = 10_000
STEEPEST_DESCENT_SLACK = 1e-10
GEODESIC_POINTS = 10
GEODESIC_ODE_TOL = 1e-6
GEODESIC_RATIO_LO, GEODESIC_RATIO_HI = 3.5, 4.5
REPARAM_TRIPLES = 50
REPARAM_MAX_COND = 100.0
REPARAM_TOL = 1e-8


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    metric: str  # human-readable margin, deterministic formatting

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name},{status},{self.metric}"


def _random_joint(rng: Rng, with_zeros: bool = False) -> np.ndarray:
    nx = int(rng.integers(2, 9))
    nz = int(rng.integers(2, 9))
    raw = rng.uniform(0.05, 1.0, (nx, nz))
    if with_zeros:
        mask = rng.uniform(0.0, 1.0, (nx, nz)) < 0.25
        # never zero out everything
        mask.flat[int(rng.integers(0, nx * nz))] = False
        raw = np.where(mask, 0.0, raw)
    return raw / raw.sum()


def _random_simplex(rng: Rng, n: int) -> np.ndarray:
    raw = rng.uniform(0.05, 1.0, n)
    return raw / raw.sum()


def check_pythagorean(seed: int = 0) -> CheckResult:
    """KL(p || q x r) splits exactly into I(p) + marginal KLs."""
    rng = Rng(seed, stream=1)
    worst = 0.0
    for i in range(PYTHAGOREAN_JOINTS):
        p = _random_joint(rng, with_zeros=(i % 5 == 0))
        q = _random_simplex(rng, p.shape[0])
        r = _random_simplex(rng, p.shape[1])
        worst = max(worst, abs(di.pythagorean_residual(p, q, r)))
    return CheckResult("pythagorean_identity", worst < PYTHAGOREAN_TOL,
                       f"max|residual|={worst:.3e} bound={PYTHAGOREAN_TOL:.0e}")


def _projection_margins(seed: int, n_joints: int, n_perturb: int) -> np.ndarray:
    """KL(p || perturbed reference) - KL(p || marginals), (n_joints, n_perturb).

    Each perturbation draws its scale and then one normal vector split at
    nx, in the order of a per-perturbation loop; a joint's perturbations
    are then scored in one stacked kl_to_product call.  The scale stays a
    scalar power per draw, because numpy's array power can round
    differently from the scalar one.
    """
    rng = Rng(seed, stream=2)
    margins = np.empty((n_joints, n_perturb))
    for row in margins:
        p = _random_joint(rng)
        qx, rz = di.i_projection(p)
        nx = qx.shape[0]
        base = di.kl_to_product(p, qx, rz)
        sizes = np.empty((n_perturb, 1))
        steps = np.empty((n_perturb, nx + rz.shape[0]))
        for k in range(n_perturb):
            sizes[k] = 10.0 ** rng.uniform(-3.0, -0.3)
            steps[k] = rng.normal(steps.shape[1])
        scaled = np.exp(sizes * steps)
        qp = qx * scaled[:, :nx]
        rp = rz * scaled[:, nx:]
        row[:] = di.kl_to_product(p, qp / qp.sum(axis=1, keepdims=True),
                                  rp / rp.sum(axis=1, keepdims=True)) - base
    return margins


def check_projection_optimality(seed: int = 0) -> CheckResult:
    """No perturbed product reference beats the product of marginals."""
    worst = float(_projection_margins(seed, PROJECTION_JOINTS, PROJECTION_PERTURB).min())
    return CheckResult("projection_optimality", worst >= -PROJECTION_SLACK,
                       f"min(margin)={worst:.3e} slack={PROJECTION_SLACK:.0e}")


def check_fr_gap_decay(seed: int = 0) -> CheckResult:
    """|KL - quadratic proxy| decays cubically: halving the offset divides
    the gap by ~8."""
    lo, hi = FR_GAP_RATIO_LO, FR_GAP_RATIO_HI
    rng = Rng(seed, stream=3)
    k = 3
    lo_seen, hi_seen = np.inf, 0.0
    ok = True
    for _ in range(FR_GAP_DIRS):
        direction = rng.normal(2 * k)
        direction /= np.linalg.norm(direction)
        for delta in (0.2, 0.1, 0.05):
            # rows [mu | log_var] at the offset and at half of it
            rows = np.outer([delta, delta / 2.0], direction)
            gaps = fr_second_order_gap(rows[:, :k], rows[:, k:])
            ratio = float(gaps[0] / gaps[1])
            lo_seen = min(lo_seen, ratio)
            hi_seen = max(hi_seen, ratio)
            ok = ok and lo <= ratio <= hi
    return CheckResult("fr_gap_cubic_decay", ok,
                       f"ratios=[{lo_seen:.3f},{hi_seen:.3f}] bounds=[{lo},{hi}]")


def check_bound_chain(seed: int = 0) -> CheckResult:
    """Sylvester equality of the two logdet forms; trace bound dominates;
    correlated inputs (C <= I) can only lower the capacity."""
    rng = Rng(seed, stream=4)
    worst_eq, worst_ineq, worst_cap = 0.0, -np.inf, -np.inf
    for i in range(BOUND_CHAIN_CHANNELS):
        out_d = int(rng.integers(1, 7))
        in_d = int(rng.integers(1, 7))
        jac = rng.normal((out_d, in_d)) * (10.0 ** rng.uniform(-1.0, 0.5))
        noise = np.exp(rng.uniform(-2.0, 2.0, out_d))
        ch = LocalChannel(jacobian=jac, noise_cov=noise)
        lhs, mid, rhs = bound_chain_check(ch)
        worst_eq = max(worst_eq, abs(lhs - mid))
        worst_ineq = max(worst_ineq, mid - rhs)
        if i % 2 == 0:
            # random symmetric C with spectrum in [0, 1]
            basis = np.linalg.qr(rng.normal((in_d, in_d)))[0]
            spec = rng.uniform(0.0, 1.0, in_d)
            cov = basis @ np.diag(spec) @ basis.T
            cov = 0.5 * (cov + cov.T)
            ch_c = LocalChannel(jacobian=jac, noise_cov=noise, input_cov=cov)
            worst_cap = max(worst_cap, capacity_logdet(ch_c) - lhs)
    ok = (worst_eq <= BOUND_CHAIN_EQ_TOL and worst_ineq <= BOUND_CHAIN_INEQ_TOL
          and worst_cap <= BOUND_CHAIN_INEQ_TOL)
    return CheckResult(
        "jf_bound_chain", ok,
        f"max|lhs-mid|={worst_eq:.3e} max(mid-rhs)={worst_ineq:.3e} "
        f"max(cap-lhs)={worst_cap:.3e}",
    )


def _random_small_net(rng: Rng) -> Network:
    d_in = int(rng.integers(2, 7))
    d_mid = int(rng.integers(2, 7))
    d_out = int(rng.integers(1, 7))
    act = ("tanh", "softplus")[int(rng.integers(0, 2))]
    return Network(
        [LayerSpec(d_in, d_mid, act), LayerSpec(d_mid, d_out, "identity")],
        rng,
    )


def check_hutchinson(seed: int = 0) -> CheckResult:
    """The probe estimator is unbiased for the exact weighted trace.

    A net whose probes all return one value (a diagonal J^T S^-1 J, on
    which every Rademacher probe gives the exact trace) has no spread to
    scale by: the standard error is zero, or round-off from averaging
    equal values.  Where it is within HUTCHINSON_EXACT_TOL of the exact
    trace, the estimate must equal that trace to the same relative bound.
    """
    rng = Rng(seed, stream=5)
    ok = True
    worst_sigma = 0.0
    zero_spread = 0
    for i in range(HUTCHINSON_NETS):
        net = _random_small_net(rng)
        x = rng.normal(net.in_dim)
        noise = np.exp(rng.uniform(-1.0, 1.0, net.out_dim))
        exact = exact_trace(LocalChannel(net.explicit_jacobian(x), noise))
        if i == 0:
            first = net, x, noise, exact
        value, per_probe = jf_hutchinson(net, x, noise, HUTCHINSON_PROBES,
                                         Rng(seed, stream=600 + i))
        se = float(np.std(per_probe, ddof=1) / np.sqrt(HUTCHINSON_PROBES))
        if se <= HUTCHINSON_EXACT_TOL * abs(exact):
            zero_spread += 1
            ok = ok and abs(value - exact) <= HUTCHINSON_EXACT_TOL * abs(exact)
            continue
        sigmas = abs(value - exact) / se
        worst_sigma = max(worst_sigma, sigmas)
        ok = ok and sigmas <= 3.0
    # mean of repeated estimates on the first net drifts under 1% of exact
    net, x, noise, exact = first
    reps = [
        jf_hutchinson(net, x, noise, HUTCHINSON_PROBES, Rng(seed, stream=700 + r))[0]
        for r in range(HUTCHINSON_REPS)
    ]
    rel = abs(float(np.mean(reps)) - exact) / exact
    ok = ok and rel <= HUTCHINSON_REP_TOL
    return CheckResult(
        "hutchinson_unbiased", ok,
        f"max|z|={worst_sigma:.2f}sigma rep_rel_err={rel:.4%} "
        f"zero_spread={zero_spread}",
    )


def check_gradients_fd(seed: int = 0) -> CheckResult:
    """Analytic objective gradients match central finite differences of
    the total reported, the Jacobian penalty's noise taken from the
    log-variances, with each rate."""
    worst = 0.0
    for trial, rate in enumerate((kl_to_standard_normal, fr_quadratic_proxy)):
        rng = Rng(seed, stream=8 + trial)
        k_dim = 2
        enc = Network(
            [LayerSpec(3, 4, "tanh"), LayerSpec(4, 2 * k_dim, "identity")],
            rng,
        )
        dec = Network(
            [LayerSpec(k_dim, 4, "softplus"), LayerSpec(4, 3, "identity")],
            rng,
        )
        batch = 5
        x = rng.normal((batch, 3))
        y = rng.integers(0, 3, batch)
        eps = rng.normal((batch, k_dim))
        probes = draw_probes(rng, 2, batch, 3)
        kwargs = dict(beta=0.5, rate=rate, k_dim=k_dim, eps=eps, probes=probes)
        _, g_enc, g_dec, _ = geoib_loss_and_grads(enc, dec, x, y, **kwargs)
        analytic = np.concatenate([g_enc, g_dec])

        n_enc = enc.n_params
        params = np.concatenate([enc.get_params(), dec.get_params()])

        def value(flat):
            e2, d2 = enc.copy(), dec.copy()
            e2.set_params(flat[:n_enc])
            d2.set_params(flat[n_enc:])
            m = geoib_loss_and_grads(e2, d2, x, y, want_grads=False, **kwargs)
            return m.total

        fd = np.zeros_like(analytic)
        for i in range(params.size):
            up, dn = params.copy(), params.copy()
            up[i] += GRADIENTS_FD_STEP
            dn[i] -= GRADIENTS_FD_STEP
            fd[i] = (value(up) - value(dn)) / (2 * GRADIENTS_FD_STEP)
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-4)
        worst = max(worst, float(rel.max()))
    return CheckResult("gradient_finite_difference", worst < GRADIENTS_FD_TOL,
                       f"max_rel_err={worst:.3e} bound={GRADIENTS_FD_TOL:.0e}")


def check_cg_vs_dense(seed: int = 0) -> CheckResult:
    """The exact Kronecker solve reproduces a dense solve of the
    materialized damped Kronecker blocks, and the factored FVP agrees with
    the explicit Kronecker product."""
    rng = Rng(seed, stream=10)
    net = Network(
        [LayerSpec(3, 4, "tanh"), LayerSpec(4, 3, "identity")], rng
    )
    x = rng.normal((12, 3))
    lam = 1e-3
    g = rng.normal(net.n_params)

    # factored operator and solve against the materialized Kronecker blocks
    state = kfac_init(net, damping=lam, ema_decay=0.0)
    out = net.forward(x, capture=True)
    net.backward(rng.normal(out.shape))
    kfac_update(state, net)
    v = rng.normal(net.n_params)
    v /= np.linalg.norm(v)
    fvp = fisher_vector_product(state, v)
    explicit = np.zeros_like(fvp)
    for out, seg, a_f, g_f in zip(layer_blocks(explicit, state.shapes),
                                  layer_blocks(v, state.shapes),
                                  state.a_factors, state.g_factors):
        blk = np.kron(g_f + lam * np.eye(g_f.shape[0]),
                      a_f + lam * np.eye(a_f.shape[0]))
        out[...] = (blk @ seg.ravel()).reshape(out.shape)
    err_fvp = float(np.max(np.abs(fvp - explicit)))
    kfac_dense = np.linalg.solve(kfac_dense_matrix(state), g)
    err_kfac = float(np.max(np.abs(natural_gradient(state, g).direction
                                   - kfac_dense)))
    ok = err_kfac < CG_VS_DENSE_SOLVE_TOL and err_fvp < CG_VS_DENSE_FVP_TOL
    return CheckResult("natural_gradient_solves", ok,
                       f"kfac_vs_kron={err_kfac:.3e} fvp_vs_kron={err_fvp:.3e}")


def _random_fisher(rng: Rng, log_spread: float) -> np.ndarray:
    """Symmetric positive definite matrix of side 3..8, with eigenvalues
    exp(U(-log_spread, log_spread)) in a random orthonormal basis."""
    dim = int(rng.integers(3, 9))
    basis = np.linalg.qr(rng.normal((dim, dim)))[0]
    spec = np.exp(rng.uniform(-log_spread, log_spread, dim))
    fisher = basis @ np.diag(spec) @ basis.T
    return 0.5 * (fisher + fisher.T)


def check_steepest_descent(seed: int = 0) -> CheckResult:
    """No random unit-Fisher-norm direction descends faster than the
    normalized natural gradient."""
    rng = Rng(seed, stream=11)
    worst = np.inf
    for i in range(STEEPEST_DESCENT_FISHERS):
        fisher = _random_fisher(rng, 1.0)
        g = rng.normal(fisher.shape[0])
        margin = steepest_descent_margin(fisher, g, STEEPEST_DESCENT_DIRS,
                                         Rng(seed, stream=1100 + i))
        worst = min(worst, margin)
    return CheckResult("steepest_descent", worst >= -STEEPEST_DESCENT_SLACK,
                       f"min(margin)={worst:.3e} slack={STEEPEST_DESCENT_SLACK:.0e}")


def _geodesic_accel(sigma: float, dmu: float, dsigma: float):
    """(mu'', sigma'') on the geodesic of the metric diag(1/sigma^2, 2/sigma^2)."""
    return (2.0 * dmu * dsigma / sigma,
            (dsigma * dsigma - 0.5 * dmu * dmu) / sigma)


def _rk4_geodesic(mu: float, sigma: float, dmu: float, dsigma: float,
                  steps: int) -> tuple[float, float]:
    """(mu, sigma) at t=1 by `steps` classical fourth-order Runge-Kutta
    steps of the geodesic equations, on Python floats."""
    h = 1.0 / steps
    for _ in range(steps):
        a1, b1 = _geodesic_accel(sigma, dmu, dsigma)
        m2, s2 = dmu + 0.5 * h * a1, dsigma + 0.5 * h * b1
        a2, b2 = _geodesic_accel(sigma + 0.5 * h * dsigma, m2, s2)
        m3, s3 = dmu + 0.5 * h * a2, dsigma + 0.5 * h * b2
        a3, b3 = _geodesic_accel(sigma + 0.5 * h * s2, m3, s3)
        m4, s4 = dmu + h * a3, dsigma + h * b3
        a4, b4 = _geodesic_accel(sigma + h * s3, m4, s4)
        mu += h / 6.0 * (dmu + 2.0 * m2 + 2.0 * m3 + m4)
        sigma += h / 6.0 * (dsigma + 2.0 * s2 + 2.0 * s3 + s4)
        dmu += h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        dsigma += h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
    return mu, sigma


def _geodesic_ode(p: Gaussian1D, tangent) -> Gaussian1D:
    """Independent endpoint: integrate the geodesic equations of the metric
    diag(1/sigma^2, 2/sigma^2) from t=0 to 1.

    Two Runge-Kutta runs, of 400 and 800 steps, are combined by Richardson
    extrapolation, which cancels their leading h^4 error term.  For
    tangents of the size `check_geodesic` draws the endpoint is within
    about 1e-11 of the closed form, far below its tolerance.
    """
    start = (p.mu, p.sigma, float(tangent[0]), float(tangent[1]))
    mu_c, sigma_c = _rk4_geodesic(*start, 400)
    mu_f, sigma_f = _rk4_geodesic(*start, 800)
    # Gaussian1D refuses a non-finite or non-positive endpoint
    return Gaussian1D(mu=mu_f + (mu_f - mu_c) / 15.0,
                      sigma=sigma_f + (sigma_f - sigma_c) / 15.0)


def check_geodesic(seed: int = 0) -> CheckResult:
    """Closed-form exponential map matches the integrated geodesic, and the
    additive-step gap shrinks quadratically in the step size."""
    rng = Rng(seed, stream=12)
    worst_ode = 0.0
    lo_seen, hi_seen = np.inf, 0.0
    ok = True
    for _ in range(GEODESIC_POINTS):
        p = Gaussian1D(mu=float(rng.uniform(-1.0, 1.0)),
                       sigma=float(np.exp(rng.uniform(-0.7, 0.7))))
        tangent = rng.normal(2)
        endpoint = exp_map_1d(p, tangent)
        oracle = _geodesic_ode(p, tangent)
        worst_ode = max(worst_ode,
                        float(np.hypot(endpoint.mu - oracle.mu,
                                       endpoint.sigma - oracle.sigma)))
        grad = rng.normal(2)
        grad /= np.linalg.norm(grad)
        for eta in (0.1, 0.05, 0.025):
            ratio = (geodesic_vs_additive_gap(p, grad, eta)
                     / geodesic_vs_additive_gap(p, grad, eta / 2.0))
            lo_seen = min(lo_seen, ratio)
            hi_seen = max(hi_seen, ratio)
            ok = ok and GEODESIC_RATIO_LO <= ratio <= GEODESIC_RATIO_HI
    ok = ok and worst_ode < GEODESIC_ODE_TOL
    return CheckResult(
        "geodesic_consistency", ok,
        f"ode_gap={worst_ode:.3e} ratios=[{lo_seen:.3f},{hi_seen:.3f}]",
    )


def check_reparam_invariance(seed: int = 0) -> CheckResult:
    """Natural steps computed in transformed coordinates map back exactly."""
    rng = Rng(seed, stream=13)
    worst = 0.0
    for _ in range(REPARAM_TRIPLES):
        fisher = _random_fisher(rng, 0.7)
        dim = fisher.shape[0]
        g = rng.normal(dim)
        cond = 10.0 ** rng.uniform(0.0, np.log10(REPARAM_MAX_COND))
        u = np.linalg.qr(rng.normal((dim, dim)))[0]
        vt = np.linalg.qr(rng.normal((dim, dim)))[0]
        sing = np.geomspace(1.0, cond, dim)
        transform = u @ np.diag(sing) @ vt
        worst = max(worst, reparam_invariance_check(fisher, g, transform))
    return CheckResult("reparam_invariance", worst < REPARAM_TOL,
                       f"max_gap={worst:.3e} bound={REPARAM_TOL:.0e}")


ALL_CHECKS = (
    check_pythagorean,
    check_projection_optimality,
    check_fr_gap_decay,
    check_bound_chain,
    check_hutchinson,
    check_gradients_fd,
    check_cg_vs_dense,
    check_steepest_descent,
    check_geodesic,
    check_reparam_invariance,
)


def run_all_checks(seed: int = 0) -> list[CheckResult]:
    """Every check, on one BLAS thread (`linalg.pin_blas_threads`)."""
    pin_blas_threads()
    return [check(seed=seed) for check in ALL_CHECKS]


def write_results(results, path) -> None:
    """Deterministic results file: name,status,metric per line, no timing."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("check,status,metric\n")
        for r in results:
            fh.write(r.line() + "\n")
