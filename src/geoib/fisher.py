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
factors are Cholesky-factored (`linalg.spd_solve`) and each EMA layer
block costs two factor-and-solve calls (Martens & Grosse 2015,
arXiv:1503.05671).  A non-finite factor or gradient, or a factor that is
not positive definite, raises FloatingPointError naming the layer.
Gradients, directions and FVP operands are flat vectors in the network's
parameter layout; each routine cuts them into layer blocks with
`nets.layer_blocks` and writes its result through blocks of one flat
output.  Conjugate gradient remains only for truncated Kronecker solves
requested with an explicit iteration cap.

A batch of B rows spans at most B of the d + 1 dimensions of layer 0's
bias-augmented input.  A state told the configured batch size
(`kfac_init(batch=)`) decides once whether the batch can span it; when
it cannot (B < d + 1), layer 0's A is the batch's own, A = X^T X / B
over the bias-augmented rows X (`KfacState.input_rows`), not an EMA, and
its block is solved in batch space by Sherman-Morrison-Woodbury (Ren &
Goldfarb 2019, arXiv:1906.02353):

    grad (A + lam I)^-1 = (1/lam) [grad - (grad X^T) (lam B I + X X^T)^-1 X]

one B-square solve in place of a (d+1)-square one.  On 784-pixel digits
that is a 128-square system instead of a 785-square one.  Its G side is
solved once against the identity, and (G + lam I)^-1 is applied to the
(d+1)-wide block as one product.  Every other layer, and an input layer
the batch spans, keeps the EMA and its Cholesky route.
`KfacState.a_factors` still reads as every layer's A: a batch-space
layer's is formed from the rows on its first read after an update and
kept until the next, so that products, dense matrices and outside checks
see the factor the solve used.  Training never reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import conjugate_gradient, spd_solve
from .nets import Network, layer_blocks

# kfac_dense_matrix refuses states with more parameters than this.
DENSE_FISHER_GUARD = 2000


def _damped(m: np.ndarray, lam: float) -> np.ndarray:
    """m + lam I, adding lam to the diagonal of a copy."""
    out = np.array(m, dtype=np.float64)
    out.flat[:: out.shape[0] + 1] += lam
    return out


# ---------------------------------------------------------------- K-FAC state


class KfacState:
    """Kronecker factors of a network's Fisher, maintained as EMAs.

    `shapes` are the network's (out, in+1) layer-block shapes; layer l has
    an (in+1)-square A factor and an out-square G factor.  Factors are
    unset until the first `kfac_update`; the first update adopts the batch
    statistics outright, later ones blend with decay `ema_decay` (a decay
    of 0 keeps per-batch factors).

    With `batch_space`, layer 0's A is not blended: each update keeps the
    batch's bias-augmented input rows as `input_rows`, and the solve works
    from them.  `a_factors[0]` is then formed from the rows, with the bits
    of `_second_moment(x, bias=True)`, on its first read after an update.
    """

    def __init__(self, shapes, damping: float, ema_decay: float,
                 a_factors: list | None = None, g_factors: list | None = None,
                 batch_space: bool = False):
        if damping < 0.0:
            raise ValueError(f"damping must be nonnegative, got {damping}")
        if not 0.0 <= ema_decay < 1.0:
            raise ValueError(f"ema_decay must lie in [0, 1), got {ema_decay}")
        self.shapes, self.damping, self.ema_decay = shapes, damping, ema_decay
        # a batch-space state holds None for layer 0 until a_factors is read
        self._a_factors, self.g_factors = a_factors, g_factors
        self.batch_space = batch_space
        self.input_rows: np.ndarray | None = None

    @property
    def a_factors(self) -> list | None:
        factors = self._a_factors
        if factors is not None and factors[0] is None:
            factors[0] = _second_moment(self.input_rows)
        return factors

    @property
    def n_params(self) -> int:
        return sum(rows * cols for rows, cols in self.shapes)


def kfac_init(net: Network, damping: float, ema_decay: float,
              batch: int | None = None) -> KfacState:
    """An empty state for `net`.  Given the configured batch size, a
    state whose batches cannot span layer 0's bias-augmented input
    (batch < in + 1) solves that layer in batch space."""
    wide = batch is not None and batch < net.shapes[0][1]
    return KfacState(net.shapes, damping, ema_decay, batch_space=wide)


def _second_moment(m: np.ndarray, bias: bool = False) -> np.ndarray:
    """(1/B) m^T m over the B rows of m, with a column of ones appended
    first when `bias`."""
    batch = m.shape[0]
    if bias:
        m = _with_bias(m)
    out = m.T @ m
    out /= batch
    return out


def _with_bias(m: np.ndarray) -> np.ndarray:
    return np.concatenate([m, np.ones((m.shape[0], 1))], axis=1)


def kfac_update(state: KfacState, net: Network) -> KfacState:
    """Absorb the captured forward/backward statistics of `net`.

    Per layer, with B the batch size, a the layer inputs augmented by the
    bias constant, and g the captured pre-activation gradients:

        A <- rho A + (1 - rho) (1/B) sum_i a_i a_i^T
        G <- rho G + (1 - rho) (1/B) sum_i g_i g_i^T

    Later updates blend into the existing factor arrays in place.  A
    batch-space state keeps layer 0's augmented rows as `input_rows`
    instead, and forgets the A it formed from the last rows.  Mutates and
    returns `state`.
    """
    acts, grads_pre = net.captured_stats()
    if net.shapes != state.shapes:
        raise ValueError("network layer shapes do not match this KfacState")
    skip = int(state.batch_space)
    new = ([_second_moment(a, bias=True) for a in acts[skip:]]
           + [_second_moment(g) for g in grads_pre])
    if state._a_factors is None:
        factors = new
    else:
        factors = state._a_factors[skip:] + state.g_factors
        rho = state.ema_decay
        for old, batch_moment in zip(factors, new):
            batch_moment *= 1.0 - rho
            old *= rho
            old += batch_moment
    if skip:
        factors = [None] + factors
        state.input_rows = _with_bias(acts[0])
    n_layers = len(state.shapes)
    state._a_factors, state.g_factors = factors[:n_layers], factors[n_layers:]
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
    same damped factors.  Layer 0 of a batch-space state is solved and its
    residual formed from `input_rows` alone (`_batch_space_block`), so the
    solve forms no (in+1)-square array for it.

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
    g = np.asarray(grad, dtype=np.float64).ravel()
    if max_iter is not None:
        res = conjugate_gradient(lambda v: fisher_vector_product(state, v), g,
                                 tol=tol, max_iter=max_iter)
        return NaturalGradStep(direction=res.x, residual=res.residual,
                               iterations=res.iterations)
    if state._a_factors is None:
        raise RuntimeError("KfacState has no factors yet; run kfac_update first")
    if not np.isfinite(g).all():
        raise FloatingPointError("gradient has non-finite entries")
    lam = state.damping
    direction = np.empty_like(g)
    sq_residual = 0.0
    layers = zip(layer_blocks(direction, state.shapes), layer_blocks(g, state.shapes),
                 state._a_factors, state.g_factors)
    for i, (dir_blk, blk, a_f, g_f) in enumerate(layers):
        if i == 0 and state.batch_space:
            v, applied = _batch_space_block(blk, state.input_rows,
                                            _damped(g_f, lam), lam)
        else:
            a_d = _damped(a_f, lam)
            # blk (A + lam I)^-1 = ((A + lam I)^-1 blk^T)^T, A being symmetric
            v_a = spd_solve(a_d, blk.T, f"layer {i}: damped K-FAC factor A")
            g_d = _damped(g_f, lam)
            v = spd_solve(g_d, v_a.T, f"layer {i}: damped K-FAC factor G")
            applied = g_d @ v @ a_d
        sq_residual += float(np.sum((applied - blk) ** 2))
        dir_blk[...] = v
    gnorm = float(np.linalg.norm(g))
    residual = float(np.sqrt(sq_residual)) / gnorm if gnorm > 0.0 else 0.0
    return NaturalGradStep(direction=direction, residual=residual, iterations=0)


def _batch_space_block(blk: np.ndarray, rows: np.ndarray, g_d: np.ndarray,
                       lam: float) -> tuple[np.ndarray, np.ndarray]:
    """(V, (G + lam I) V (A + lam I)) for layer 0's block `blk`, where
    A = X^T X / B over the B bias-augmented `rows` X and `g_d` is G + lam I.

    blk (A + lam I)^-1 = (1/lam) [blk - (blk X^T) (lam B I + X X^T)^-1 X]
    by Woodbury, and V (A + lam I) = (V X^T) X / B + lam V, so neither
    needs A.  (G + lam I)^-1 is formed as a matrix, by one solve against
    the out-square identity, and applied as one product: on digits that
    is 32 right-hand sides in place of in + 1 = 785.
    """
    what = "layer 0: damped K-FAC factor A"
    batch = rows.shape[0]
    if lam == 0.0:
        raise FloatingPointError(f"{what} is not positive definite: {batch} "
                                 f"rows span at most {batch} of its "
                                 f"{rows.shape[1]} dimensions")
    gram = rows @ rows.T
    gram.flat[:: batch + 1] += lam * batch
    v_a = blk - spd_solve(gram, rows @ blk.T, what).T @ rows
    v_a /= lam
    g_inv = spd_solve(g_d, np.eye(g_d.shape[0]),
                      "layer 0: damped K-FAC factor G")
    v = g_inv @ v_a
    spanned = (v @ rows.T) @ rows
    spanned /= batch
    spanned += lam * v
    return v, g_d @ spanned


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
