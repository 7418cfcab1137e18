"""Fisher information machinery: Kronecker factors and damped
natural-gradient solves.

The natural gradient is the Riemannian gradient of the loss under the
Fisher metric: preconditioning by F^-1 yields the steepest-descent
direction per unit Fisher-Rao norm, and the resulting step is invariant
under smooth reparameterization to first order.  Both properties have
direct numerical checks here (`steepest_descent_margin`,
`reparam_invariance_check`) because they are what the optimizer is for.

For layered networks the Fisher block of a layer is approximated by the
Kronecker product A x G of the layer-input second moment A (bias handled by
augmenting a constant 1) and the pre-activation gradient second moment G.
Each factor is damped separately, so the layer's system is

    (G + lam I) V (A + lam I) = grad

rather than (A x G + lam I) v = grad.  Its inverse is
(G + lam I)^-1 grad (A + lam I)^-1, and the solve is exact: both damped
factors are Cholesky-factored (`linalg.spd_solve`; the input layer's may
be factored ahead, below) and each layer block costs two triangular-pair
solves (Martens & Grosse 2015, arXiv:1503.05671).  A non-finite factor or
gradient, or a factor that is not positive definite, raises
FloatingPointError naming the layer.  Gradients, directions and FVP
operands are flat vectors in the network's parameter layout; each routine
cuts them into layer blocks with `nets.layer_blocks` and writes its result
through blocks of one flat output.  Conjugate gradient remains only for
truncated Kronecker solves requested with an explicit iteration cap.

The input layer's A factor is built from the batch alone, so it does not
depend on the parameters or the gradient.  `input_factor_update` blends it,
damps a copy and Cholesky-factors that copy in place (`linalg.spd_factor`,
which releases the GIL) without touching the state; the resulting
`InputFactor` holds only the blended factor `a` and the Cholesky factor
`chol`.  When the encoder input is at least 576 wide
(`training._OVERLAP_MIN_INPUTS`), training forms it one batch ahead on a
worker thread that lives as long as the run and reads the run's batch
order itself, each factor blended from the one before, as Ba, Grosse &
Martens (2017) compute factor inverses asynchronously.  A step hands its
`InputFactor` to `kfac_update`, which adopts `a` for layer 0 and keeps
`chol` as `KfacState.input_chol`; the next `natural_gradient` solves with
it and lets it go.  The factors, directions and residuals keep their bits.
Narrower inputs and every other layer stay on the one-thread route, where
the worker and the ctypes call would cost more than the factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import conjugate_gradient, spd_factor, spd_solve
from .nets import Network, layer_blocks

# kfac_dense_matrix refuses states with more parameters than this.
DENSE_FISHER_GUARD = 2000


def _damped(m: np.ndarray, lam: float) -> np.ndarray:
    """m + lam I, adding lam to the diagonal of a copy."""
    out = np.array(m, dtype=np.float64)
    out.flat[:: out.shape[0] + 1] += lam
    return out


# ---------------------------------------------------------------- K-FAC state


@dataclass
class KfacState:
    """Kronecker factors of a network's Fisher, maintained as EMAs.

    `shapes` are the network's (out, in+1) layer-block shapes; layer l has
    an (in+1)-square A factor and an out-square G factor.  Factors are
    unset until the first `kfac_update`; the first update adopts the batch
    statistics outright, later ones blend with decay `ema_decay` (a decay
    of 0 keeps per-batch factors).  `input_chol` is the Cholesky factor of
    the damped layer-0 A factor that the last `kfac_update` adopted, if
    any; the next `natural_gradient` takes it and sets it to None.
    """

    shapes: tuple
    damping: float
    ema_decay: float
    a_factors: list | None = None
    g_factors: list | None = None
    input_chol: np.ndarray | None = None

    def __post_init__(self):
        if self.damping < 0.0:
            raise ValueError(f"damping must be nonnegative, got {self.damping}")
        if not 0.0 <= self.ema_decay < 1.0:
            raise ValueError(f"ema_decay must lie in [0, 1), got {self.ema_decay}")

    @property
    def n_params(self) -> int:
        return sum(rows * cols for rows, cols in self.shapes)


def kfac_init(net: Network, damping: float, ema_decay: float) -> KfacState:
    return KfacState(shapes=net.shapes, damping=damping, ema_decay=ema_decay)


def _second_moment(m: np.ndarray, bias: bool = False) -> np.ndarray:
    """(1/B) m^T m over the B rows of m, with a column of ones appended
    first when `bias`."""
    batch = m.shape[0]
    if bias:
        m = np.concatenate([m, np.ones((batch, 1))], axis=1)
    out = m.T @ m
    out /= batch
    return out


@dataclass
class InputFactor:
    """Layer 0's updated A factor with the Cholesky factor of its damped form.

    `a` is the factor the state adopts as `a_factors[0]`, and `chol` is
    `linalg.spd_factor(a + lam I)`, formed in the damped copy's own buffer,
    which the state keeps as `input_chol` for one solve.
    """

    a: np.ndarray
    chol: np.ndarray


def input_factor_update(state: KfacState, x) -> InputFactor:
    """The input layer's A-factor update, damped and factored, from the
    batch `x` alone.

    Gives the bits `kfac_update` and `natural_gradient` give for layer 0
    but leaves `state` untouched: it only reads the current factor, so it
    can run beside the rest of a step, or of the step before, until
    `kfac_update(state, net, input_factor=)` adopts the result.  The
    damped form is exactly symmetric, as `spd_factor` needs: numpy forms
    m^T m with a symmetric rank-k update and mirrors it, and the blend and
    the damping act entry by entry.

    Raises:
        FloatingPointError: if the damped factor holds non-finite entries
            or is not numerically positive definite, naming layer 0.
    """
    a = _second_moment(np.asarray(x, dtype=np.float64), bias=True)
    if state.a_factors is None:
        damped = a.copy()
    else:
        rho = state.ema_decay
        damped = np.multiply(state.a_factors[0], rho)
        a *= 1.0 - rho
        a += damped
        np.copyto(damped, a)
    damped.flat[:: damped.shape[0] + 1] += state.damping
    return InputFactor(a=a, chol=spd_factor(damped, "layer 0: damped K-FAC factor A"))


def kfac_update(state: KfacState, net: Network,
                input_factor: InputFactor | None = None) -> KfacState:
    """Absorb the captured forward/backward statistics of `net`.

    Per layer, with B the batch size, a the layer inputs augmented by the
    bias constant, and g the captured pre-activation gradients:

        A <- rho A + (1 - rho) (1/B) sum_i a_i a_i^T
        G <- rho G + (1 - rho) (1/B) sum_i g_i g_i^T

    Later updates blend into the existing factor arrays in place.  Given
    `input_factor` (`input_factor_update` on the batch the net saw), layer
    0's A factor is replaced by its `a` instead of being computed here, and
    `state.input_chol` becomes its `chol` (None without one).  Mutates and
    returns `state`.
    """
    acts, grads_pre = net.captured_stats()
    if net.shapes != state.shapes:
        raise ValueError("network layer shapes do not match this KfacState")
    skip = input_factor is not None
    new = ([_second_moment(a, bias=True) for a in acts[skip:]]
           + [_second_moment(g) for g in grads_pre])
    if state.a_factors is None:
        factors = new
    else:
        factors = state.a_factors[skip:] + state.g_factors
        rho = state.ema_decay
        for old, batch_moment in zip(factors, new):
            batch_moment *= 1.0 - rho
            old *= rho
            old += batch_moment
    if skip:
        factors = [input_factor.a] + factors
    n_layers = len(state.shapes)
    state.a_factors, state.g_factors = factors[:n_layers], factors[n_layers:]
    state.input_chol = input_factor.chol if skip else None
    return state


def fisher_vector_product(state: KfacState, v) -> np.ndarray:
    """Damped Kronecker-factored Fisher applied to a flat vector.

    Per layer block V (out, in+1) this is (G + lam I) V (A + lam I), i.e.
    the operator (A + lam I) x (G + lam I) in Kronecker form.
    """
    if state.a_factors is None:
        raise RuntimeError("KfacState has no factors yet; run kfac_update first")
    lam = state.damping
    v = np.asarray(v, dtype=np.float64).ravel()
    out = np.empty_like(v)
    for out_blk, blk, a_f, g_f in zip(layer_blocks(out, state.shapes),
                                      layer_blocks(v, state.shapes),
                                      state.a_factors, state.g_factors):
        out_blk[...] = _damped(g_f, lam) @ blk @ _damped(a_f, lam)
    return out


def kfac_dense_matrix(state: KfacState) -> np.ndarray:
    """Materialize the damped block-diagonal Kronecker Fisher (test sizes).

    Layer blocks flatten row-major, so each is kron(G + lam I, A + lam I).
    """
    if state.a_factors is None:
        raise RuntimeError("KfacState has no factors yet; run kfac_update first")
    n = state.n_params
    if n > DENSE_FISHER_GUARD:
        raise ValueError(
            f"dense Fisher of {n} parameters exceeds the {DENSE_FISHER_GUARD} guard"
        )
    lam = state.damping
    dense = np.zeros((n, n))
    i = 0
    for a_f, g_f in zip(state.a_factors, state.g_factors):
        blk = np.kron(_damped(g_f, lam), _damped(a_f, lam))
        j = i + blk.shape[0]
        dense[i:j, i:j] = blk
        i = j
    return dense


# ------------------------------------------------------- natural gradient


@dataclass(frozen=True)
class NaturalGradStep:
    """A preconditioned direction with its solve diagnostics.

    `residual` is the relative residual ||F v - g|| / ||g|| of the damped
    system actually solved (0 for a zero gradient); `iterations` counts
    conjugate-gradient operator applications of a truncated solve and is 0
    for the exact Cholesky solve.
    """

    direction: np.ndarray
    residual: float
    iterations: int


def natural_gradient(state: KfacState, grad, tol: float = 1e-6,
                     max_iter: int | None = None) -> NaturalGradStep:
    """Solve the damped Kronecker-factored Fisher system for the natural
    direction.

    The exact solve gives per layer block (G + lam I)^-1 grad (A + lam I)^-1
    from Cholesky factors of both damped factors, and the relative residual
    ||(G + lam I) V (A + lam I) - grad|| / ||grad|| over all blocks from the
    same damped factors.  Layer 0 solves with the state's `input_chol` when
    it holds one, then forms A + lam I for the residual in its buffer, so
    layer 0 never holds two damped-size arrays at once.  Every solve sets
    `input_chol` to None.

    Args:
        state: K-FAC factors with their damping.
        grad: flat gradient vector.
        tol: conjugate-gradient target of a truncated solve; the exact
            solve ignores it.
        max_iter: requests a truncated solve instead of the exact one:
            conjugate gradient on the damped Kronecker operator for at most
            `max_iter` iterations, returning the best iterate on hitting
            the cap.

    Returns:
        NaturalGradStep with the direction, flat in `grad`'s layout.

    Raises:
        RuntimeError: if the state has no factors yet.
        FloatingPointError: if the gradient or a damped factor holds
            non-finite entries, or a damped factor is not numerically
            positive definite (zero damping on a rank-deficient factor);
            the message names the layer.
    """
    chol, state.input_chol = state.input_chol, None
    g = np.asarray(grad, dtype=np.float64).ravel()
    if max_iter is not None:
        res = conjugate_gradient(lambda v: fisher_vector_product(state, v), g,
                                 tol=tol, max_iter=max_iter)
        return NaturalGradStep(direction=res.x, residual=res.residual,
                               iterations=res.iterations)
    if state.a_factors is None:
        raise RuntimeError("KfacState has no factors yet; run kfac_update first")
    if not np.isfinite(g).all():
        raise FloatingPointError("gradient has non-finite entries")
    lam = state.damping
    direction = np.empty_like(g)
    sq_residual = 0.0
    layers = zip(layer_blocks(direction, state.shapes), layer_blocks(g, state.shapes),
                 state.a_factors, state.g_factors)
    for i, (dir_blk, blk, a_f, g_f) in enumerate(layers):
        what = f"layer {i}: damped K-FAC factor A"
        # blk (A + lam I)^-1 = ((A + lam I)^-1 blk^T)^T, A being symmetric
        if i == 0 and chol is not None:
            v_a = spd_solve(None, blk.T, what, chol)
            # the factor's C-ordered buffer takes A + lam I for the residual
            a_d = chol.T
            np.copyto(a_d, a_f)
            a_d.flat[:: a_d.shape[0] + 1] += lam
        else:
            a_d = _damped(a_f, lam)
            v_a = spd_solve(a_d, blk.T, what)
        g_d = _damped(g_f, lam)
        v = spd_solve(g_d, v_a.T, f"layer {i}: damped K-FAC factor G")
        sq_residual += float(np.sum((g_d @ v @ a_d - blk) ** 2))
        dir_blk[...] = v
    gnorm = float(np.linalg.norm(g))
    residual = float(np.sqrt(sq_residual)) / gnorm if gnorm > 0.0 else 0.0
    return NaturalGradStep(direction=direction, residual=residual, iterations=0)


def steepest_descent_margin(fisher_matrix, grad, n_dirs: int, rng) -> float:
    """Worst slack of the steepest-descent property over random directions.

    The normalized natural direction v* = -F^-1 g / ||F^-1 g||_F minimizes
    the directional derivative g . v over the unit Fisher-Rao sphere.  For
    each random unit-FR direction v the margin g.v - g.v* must be >= 0 up
    to round-off; the minimum margin over all trials is returned (so a
    nonnegative return, up to the caller's slack, certifies the property).
    """
    f = np.asarray(fisher_matrix, dtype=np.float64)
    g = np.asarray(grad, dtype=np.float64).ravel()
    if not np.any(g):
        return 0.0
    nat = np.linalg.solve(f, g)
    nat_norm = float(np.sqrt(nat @ f @ nat))
    best = float(g @ (-nat / nat_norm))
    w = rng.normal((n_dirs, g.shape[0]))
    norms = np.sqrt(np.einsum("nd,de,ne->n", w, f, w))
    slopes = (w @ g) / norms
    return float(np.min(slopes) - best)


def reparam_invariance_check(fisher_matrix, grad, transform) -> float:
    """Gap between the natural step and the one computed in linearly
    transformed coordinates and mapped back.

    Under parameters psi = T phi the gradient becomes T^-T g and the Fisher
    T^-T F T^-1; the natural step transforms as v' = T v, so
    T^-1 F'^-1 g' - F^-1 g vanishes in exact arithmetic.

    Returns:
        Euclidean norm of that difference.
    """
    f = np.asarray(fisher_matrix, dtype=np.float64)
    g = np.asarray(grad, dtype=np.float64).ravel()
    t = np.asarray(transform, dtype=np.float64)
    n = g.shape[0]
    if f.shape != (n, n) or t.shape != (n, n):
        raise ValueError("fisher, grad, and transform sizes must agree")
    v = np.linalg.solve(f, g)
    t_inv = np.linalg.inv(t)
    f_prime = t_inv.T @ f @ t_inv
    g_prime = t_inv.T @ g
    v_prime = np.linalg.solve(f_prime, g_prime)
    return float(np.linalg.norm(t_inv @ v_prime - v))
