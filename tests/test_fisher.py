import numpy as np
import pytest

from geoib.fisher import (
    DENSE_FISHER_GUARD,
    KfacState,
    _second_moment,
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


def _net(*specs, seed=None):
    rng = Rng(seed) if seed is not None else None
    return Network([LayerSpec(*s) for s in specs], rng)


def _random_spd(rng, n, shift=0.5):
    b = rng.normal((n, n))
    return b @ b.T + shift * np.eye(n)


def _captured(net, x, seed):
    out = net.forward(x, capture=True)
    net.backward(Rng(seed).normal(out.shape))
    return net


# ------------------------------------------------------------------ k-fac


def test_kfac_first_update_single_sample():
    # decay irrelevant on the first update: factors are the batch moments
    net = _net((3, 2, "tanh"), seed=3)
    x = Rng(4).normal((1, 3))
    _captured(net, x, seed=5)
    state = kfac_update(kfac_init(net, damping=1e-3, ema_decay=0.0), net)
    aug = np.concatenate([x[0], [1.0]])
    np.testing.assert_allclose(state.a_factors[0], np.outer(aug, aug),
                               rtol=0, atol=1e-15)
    _, grads_pre = net.captured_stats()
    g = grads_pre[0][0]
    np.testing.assert_allclose(state.g_factors[0], np.outer(g, g),
                               rtol=0, atol=1e-15)


def test_kfac_zero_activations_leave_bias_moment():
    net = _net((3, 2, "identity"), seed=6)
    _captured(net, np.zeros((4, 3)), seed=7)
    state = kfac_update(kfac_init(net, damping=1e-3, ema_decay=0.95), net)
    a = state.a_factors[0]
    expect = np.zeros((4, 4))
    expect[-1, -1] = 1.0
    np.testing.assert_array_equal(a, expect)


def test_kfac_identical_batches_are_a_fixed_point():
    net = _net((3, 4, "tanh"), (4, 2, "identity"), seed=8)
    x = Rng(9).normal((8, 3))
    ups = Rng(10).normal((8, 2))
    net.forward(x, capture=True)
    net.backward(ups)
    state = kfac_update(kfac_init(net, damping=1e-3, ema_decay=0.5), net)
    a_before = [m.copy() for m in state.a_factors]
    net.forward(x, capture=True)
    net.backward(ups)
    kfac_update(state, net)
    for old, new in zip(a_before, state.a_factors):
        np.testing.assert_allclose(new, old, rtol=0, atol=1e-15)


def test_kfac_update_blends_factors_in_place():
    net = _net((3, 4, "tanh"), (4, 2, "identity"), seed=48)
    _captured(net, Rng(49).normal((8, 3)), seed=50)
    state = kfac_update(kfac_init(net, damping=1e-3, ema_decay=0.9), net)
    arrays = state.a_factors + state.g_factors
    old = [m.copy() for m in arrays]
    _captured(net, Rng(51).normal((8, 3)), seed=52)
    # a first update adopts the batch
    batch = kfac_update(kfac_init(net, damping=1e-3, ema_decay=0.95), net)
    new = [m.copy() for m in batch.a_factors + batch.g_factors]
    kfac_update(state, net)
    for got, arr, o, n in zip(state.a_factors + state.g_factors, arrays, old, new):
        assert got is arr
        np.testing.assert_array_equal(got, 0.9 * o + (1.0 - 0.9) * n)


@pytest.mark.parametrize("specs", [
    ((5, 7, "tanh"), (7, 4, "identity")),
    ((5, 7, "softplus"), (7, 6, "identity"), (6, 4, "identity")),
], ids=["tanh", "softplus_identity_top"])
def test_backward_deltas_give_the_factors_of_a_full_backward(specs):
    # first update adopts, second blends; the pre-activation-only capture
    # must leave the factors a full backward pass leaves, bit for bit
    net = _net(*specs, seed=57)
    full = kfac_init(net, damping=1e-3, ema_decay=0.9)
    lean = kfac_init(net, damping=1e-3, ema_decay=0.9)
    for seed in (58, 59):
        x = Rng(seed).normal((16, 5))
        upstream = Rng(seed + 10).normal((16, 4))
        net.forward(x, capture=True)
        net.backward(upstream)
        kfac_update(full, net)
        net.forward(x, capture=True)
        net.backward_deltas(upstream)
        kfac_update(lean, net)
    for got, want in zip(lean.a_factors + lean.g_factors,
                         full.a_factors + full.g_factors):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ------------------------------------------- batch-space input layer

# 40 inputs and 16-row batches: the batch cannot span the 41-wide
# bias-augmented input, so layer 0 is solved in batch space
WIDE_IN, WIDE_BATCH = 40, 16


def _wide_state(seed, damping=1e-2, ema_decay=0.9, updates=2,
                rows=WIDE_BATCH):
    """A batch-space state after `updates` updates of a small wide net on
    batches of `rows` rows, with the last batch and the net."""
    net = _net((WIDE_IN, 6, "tanh"), (6, 3, "identity"), seed=seed)
    state = kfac_init(net, damping=damping, ema_decay=ema_decay,
                      batch=rows)
    assert state.batch_space and state.n_params <= DENSE_FISHER_GUARD
    for i in range(updates):
        x = Rng(seed + 1 + i).normal((rows, WIDE_IN))
        _captured(net, x, seed=seed + 11 + i)
        kfac_update(state, net)
    return state, x, net


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def test_the_batch_decides_the_route_once():
    # a batch that spans the bias-augmented input keeps the EMA route, and
    # so does a state told no batch size; a short last batch changes nothing
    net = _net((WIDE_IN, 6, "tanh"), (6, 3, "identity"), seed=60)
    assert kfac_init(net, 1e-2, 0.9, batch=WIDE_IN).batch_space
    assert not kfac_init(net, 1e-2, 0.9, batch=WIDE_IN + 1).batch_space
    assert not kfac_init(net, 1e-2, 0.9).batch_space
    state = kfac_init(net, 1e-2, 0.9, batch=WIDE_BATCH)
    for rows in (WIDE_BATCH, 5):
        _captured(net, Rng(rows).normal((rows, WIDE_IN)), seed=61)
        kfac_update(state, net)
        assert state.input_rows.shape == (rows, WIDE_IN + 1)


def test_a_batch_space_direction_matches_a_dense_solve():
    state, _, _ = _wide_state(62)
    g = Rng(63).normal(state.n_params)
    step = natural_gradient(state, g)
    want = np.linalg.solve(kfac_dense_matrix(state), g)
    np.testing.assert_allclose(step.direction, want, rtol=0,
                               atol=1e-10 * np.abs(want).max())


def test_a_one_row_batch_space_direction_matches_a_dense_solve():
    # one row spans one of A's 41 dimensions, and G is rank one plus damping
    state, _, _ = _wide_state(73, rows=1)
    assert state.input_rows.shape == (1, WIDE_IN + 1)
    g = Rng(74).normal(state.n_params)
    step = natural_gradient(state, g)
    want = np.linalg.solve(kfac_dense_matrix(state), g)
    np.testing.assert_allclose(step.direction, want, rtol=0,
                               atol=1e-10 * np.abs(want).max())
    assert step.residual <= 1e-10


def test_a_batch_space_residual_is_the_one_of_the_materialized_factor():
    state, _, _ = _wide_state(64)
    g = Rng(65).normal(state.n_params)
    step = natural_gradient(state, g)
    true_res = (np.linalg.norm(kfac_dense_matrix(state) @ step.direction - g)
                / np.linalg.norm(g))
    assert step.residual <= 1e-12 and true_res <= 1e-12
    assert abs(step.residual - true_res) <= 1e-13
    assert step.iterations == 0


def test_a_batch_space_factor_reads_as_the_batch_moment():
    # formed on the first read after an update, kept until the next, with
    # the bits of the second moment of the last batch alone; the other
    # layers keep their EMAs
    state, x, net = _wide_state(66)
    assert state._a_factors[0] is None
    first = state.a_factors[0]
    assert np.array_equal(_bits(first), _bits(_second_moment(x, bias=True)))
    assert state.a_factors[0] is first
    ema = state.a_factors[1]
    _captured(net, Rng(67).normal((WIDE_BATCH, WIDE_IN)), seed=68)
    kfac_update(state, net)
    assert state._a_factors[0] is None and state.a_factors[1] is ema


def test_reading_the_factors_between_update_and_solve_changes_no_bit():
    g = Rng(69).normal(_wide_state(70)[0].n_params)
    unread, _, _ = _wide_state(70)
    read, _, _ = _wide_state(70)
    assert read.a_factors[0] is not None
    want, got = natural_gradient(unread, g), natural_gradient(read, g)
    assert np.array_equal(_bits(got.direction), _bits(want.direction))
    assert got.residual == want.residual
    assert unread._a_factors[0] is None


def test_a_batch_space_solve_refuses_zero_damping_and_a_non_finite_row():
    state, _, _ = _wide_state(71, damping=0.0, updates=1)
    g = np.ones(state.n_params)
    with pytest.raises(FloatingPointError,
                       match="layer 0: damped K-FAC factor A is not positive"):
        natural_gradient(state, g)
    state, _, _ = _wide_state(72, updates=1)
    state.input_rows[3, 5] = np.nan
    with pytest.raises(FloatingPointError,
                       match="layer 0: damped K-FAC factor A has non-finite"):
        natural_gradient(state, g)


def test_kfac_update_rejects_mismatched_net():
    net = _net((3, 2, "identity"), seed=11)
    other = _net((2, 2, "identity"), seed=12)
    _captured(other, np.ones((1, 2)), seed=13)
    state = kfac_init(net, damping=1e-3, ema_decay=0.95)
    with pytest.raises(ValueError, match="shapes"):
        kfac_update(state, other)


def test_kfac_state_validation():
    with pytest.raises(ValueError, match="damping"):
        KfacState(shapes=((2, 2),), damping=-1.0, ema_decay=0.9)
    with pytest.raises(ValueError, match="ema_decay"):
        KfacState(shapes=((2, 2),), damping=0.0, ema_decay=1.0)


def test_fvp_identity_factors_pass_through():
    state = KfacState(shapes=((2, 3),), damping=0.0, ema_decay=0.9,
                      a_factors=[np.eye(3)], g_factors=[np.eye(2)])
    v = Rng(14).normal(6)
    np.testing.assert_allclose(fisher_vector_product(state, v), v,
                               rtol=0, atol=1e-15)


def test_fvp_matches_dense_kronecker():
    net = _net((3, 4, "tanh"), (4, 2, "identity"), seed=15)
    _captured(net, Rng(16).normal((10, 3)), seed=17)
    state = kfac_update(kfac_init(net, damping=0.37, ema_decay=0.95), net)
    dense = kfac_dense_matrix(state)
    rng = Rng(18)
    for _ in range(5):
        v = rng.normal(state.n_params)
        np.testing.assert_allclose(fisher_vector_product(state, v), dense @ v,
                                   rtol=0, atol=1e-12)


def test_dense_matrix_is_scipys_block_diagonal():
    # three layers, so every block sits off the corners; bits, not values
    from scipy.linalg import block_diag

    net = _net((3, 4, "tanh"), (4, 3, "tanh"), (3, 2, "identity"), seed=23)
    _captured(net, Rng(24).normal((10, 3)), seed=25)
    state = kfac_update(kfac_init(net, damping=0.37, ema_decay=0.95), net)

    def damped(m):
        out = m.copy()
        out.flat[:: len(m) + 1] += state.damping
        return out

    want = block_diag(*[np.kron(damped(g), damped(a))
                        for a, g in zip(state.a_factors, state.g_factors)])
    got = kfac_dense_matrix(state)
    assert got.shape == want.shape == (state.n_params, state.n_params)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_fvp_huge_damping_dominates():
    net = _net((3, 2, "tanh"), seed=19)
    _captured(net, Rng(20).normal((6, 3)), seed=21)
    state = kfac_update(kfac_init(net, damping=1e6, ema_decay=0.95), net)
    v = Rng(22).normal(state.n_params)
    got = fisher_vector_product(state, v)
    rel = np.linalg.norm(got - 1e12 * v) / np.linalg.norm(1e12 * v)
    assert rel < 1e-4


def test_fisher_guards_large_nets():
    net = _net((60, 40, "identity"), seed=24)
    _captured(net, Rng(25).normal((4, 60)), seed=26)
    state = kfac_update(kfac_init(net, damping=1e-3, ema_decay=0.95), net)
    with pytest.raises(ValueError, match="guard"):
        kfac_dense_matrix(state)


def test_fvp_requires_factors():
    state = kfac_init(_net((2, 2, "identity")), damping=1e-3, ema_decay=0.95)
    with pytest.raises(RuntimeError, match="kfac_update"):
        fisher_vector_product(state, np.zeros(6))
    with pytest.raises(RuntimeError, match="kfac_update"):
        kfac_dense_matrix(state)


# ------------------------------------------------------- natural gradient


def _kfac_state(seed, damping=1e-3):
    net = _net((3, 4, "tanh"), (4, 2, "identity"), seed=seed)
    _captured(net, Rng(seed + 1).normal((10, 3)), seed=seed + 2)
    return kfac_update(kfac_init(net, damping=damping, ema_decay=0.95), net)


def test_natural_gradient_scaled_identity():
    state = KfacState(shapes=((5, 3),), damping=0.0, ema_decay=0.9,
                      a_factors=[np.eye(3)], g_factors=[2.0 * np.eye(5)])
    g = Rng(26).normal(15)
    step = natural_gradient(state, g)
    np.testing.assert_allclose(step.direction, g / 2.0, rtol=0, atol=1e-12)
    assert step.residual <= 1e-12 and step.iterations == 0


def test_natural_gradient_zero_grad():
    state = _kfac_state(27)
    step = natural_gradient(state, np.zeros(state.n_params))
    np.testing.assert_array_equal(step.direction, np.zeros(state.n_params))
    assert step.residual == 0.0 and step.iterations == 0


def test_natural_gradient_damping_shrinks_step():
    g = Rng(28).normal(_kfac_state(29).n_params)
    norms = [
        float(np.linalg.norm(natural_gradient(_kfac_state(29, lam), g).direction))
        for lam in (1e-4, 1e-2, 1.0, 100.0)
    ]
    assert norms == sorted(norms, reverse=True)


def test_natural_gradient_satisfies_fisher_system():
    # the returned direction is the Riemannian gradient: F v = g to round-off
    # under the damped Kronecker Fisher, and the reported residual is the
    # true one
    state = _kfac_state(29)
    g = Rng(30).normal(state.n_params)
    step = natural_gradient(state, g)
    res = (np.linalg.norm(kfac_dense_matrix(state) @ step.direction - g)
           / np.linalg.norm(g))
    assert res <= 1e-12
    assert abs(step.residual - res) <= 1e-14


def test_natural_gradient_kfac_route_matches_dense():
    net = _net((3, 4, "tanh"), (4, 2, "identity"), seed=30)
    _captured(net, Rng(31).normal((10, 3)), seed=32)
    state = kfac_update(kfac_init(net, damping=1e-2, ema_decay=0.95), net)
    g = Rng(33).normal(state.n_params)
    step = natural_gradient(state, g)
    dense = kfac_dense_matrix(state)
    np.testing.assert_allclose(step.direction, np.linalg.solve(dense, g),
                               rtol=0, atol=1e-8)


def test_kfac_solve_reports_true_residual():
    net = _net((3, 5, "tanh"), (5, 2, "identity"), seed=34)
    _captured(net, Rng(35).normal((16, 3)), seed=36)
    state = kfac_update(kfac_init(net, damping=1e-3, ema_decay=0.95), net)
    g = Rng(37).normal(state.n_params)
    step = natural_gradient(state, g)
    true_res = (np.linalg.norm(fisher_vector_product(state, step.direction) - g)
                / np.linalg.norm(g))
    assert step.residual <= 1e-12 and abs(step.residual - true_res) <= 1e-14
    assert step.iterations == 0
    zero = natural_gradient(state, np.zeros(state.n_params))
    assert zero.residual == 0.0 and not np.any(zero.direction)


def test_a_batch_space_solve_refuses_a_non_finite_g_factor():
    state, _, _ = _wide_state(75, updates=1)
    state.g_factors[0][2, :] = state.g_factors[0][:, 2] = np.nan
    with pytest.raises(FloatingPointError,
                       match="layer 0: damped K-FAC factor G has non-finite"):
        natural_gradient(state, np.ones(state.n_params))


def test_kfac_solve_rejects_singular_undamped_factor():
    # one sample gives rank-one factors; without damping they are singular
    net = _net((3, 4, "tanh"), (4, 2, "identity"), seed=38)
    _captured(net, Rng(39).normal((1, 3)), seed=40)
    state = kfac_update(kfac_init(net, damping=0.0, ema_decay=0.95), net)
    with pytest.raises(FloatingPointError, match="not positive definite"):
        natural_gradient(state, np.ones(state.n_params))


def test_kfac_solve_rejects_a_non_finite_factor_naming_its_layer():
    # a NaN input row gives a NaN row and column in that layer's A factor
    net = _net((3, 4, "tanh"), (4, 2, "identity"), seed=38)
    _captured(net, Rng(39).normal((8, 3)), seed=40)
    state = kfac_update(kfac_init(net, damping=1e-3, ema_decay=0.95), net)
    state.a_factors[1][2, :] = state.a_factors[1][:, 2] = np.nan
    with pytest.raises(FloatingPointError,
                       match="layer 1: damped K-FAC factor A has non-finite"):
        natural_gradient(state, np.ones(state.n_params))


def test_exact_solves_reject_a_non_finite_gradient():
    net = _net((3, 4, "tanh"), (4, 2, "identity"), seed=38)
    _captured(net, Rng(39).normal((8, 3)), seed=40)
    state = kfac_update(kfac_init(net, damping=1e-3, ema_decay=0.95), net)
    g = np.ones(state.n_params)
    g[5] = np.inf
    with pytest.raises(FloatingPointError, match="gradient has non-finite"):
        natural_gradient(state, g)


def test_kfac_iteration_cap_requests_a_truncated_solve():
    net = _net((3, 5, "tanh"), (5, 2, "identity"), seed=41)
    _captured(net, Rng(42).normal((16, 3)), seed=43)
    state = kfac_update(kfac_init(net, damping=1e-3, ema_decay=0.95), net)
    g = Rng(44).normal(state.n_params)
    step = natural_gradient(state, g, tol=1e-14, max_iter=2)
    true_res = (np.linalg.norm(fisher_vector_product(state, step.direction) - g)
                / np.linalg.norm(g))
    assert step.iterations == 2
    assert step.residual == pytest.approx(true_res, rel=1e-9)
    assert step.residual > 1e-3
    assert natural_gradient(state, g).residual <= 1e-12


def test_natural_gradient_rejects_bad_shapes():
    state = _kfac_state(45)
    with pytest.raises(ValueError, match="flat vector"):
        natural_gradient(state, np.zeros(state.n_params + 1))


# -------------------------------------------------------- steepest descent


def test_steepest_descent_identity_fisher():
    g = np.array([1.0, 2.0, -1.0])
    assert steepest_descent_margin(np.eye(3), g, 200, Rng(34)) >= -1e-10


def test_steepest_descent_anisotropic_example():
    # F = diag(1, 100), g = (1, 1): natural direction prefers the cheap axis
    f = np.diag([1.0, 100.0])
    g = np.array([1.0, 1.0])
    nat = np.linalg.solve(f, g)
    np.testing.assert_allclose(nat, [1.0, 0.01], rtol=0, atol=1e-15)
    margin = steepest_descent_margin(f, g, 10_000, Rng(35))
    assert margin >= -1e-10


def test_steepest_descent_zero_grad_passes():
    assert steepest_descent_margin(np.eye(4), np.zeros(4), 10, Rng(36)) == 0.0


def test_steepest_descent_random_fishers():
    rng = Rng(38)
    for _ in range(5):
        f = _random_spd(rng, 6)
        g = rng.normal(6)
        assert steepest_descent_margin(f, g, 2000, rng) >= -1e-10


# ------------------------------------------------------ reparam invariance


def test_reparam_identity_transform():
    rng = Rng(39)
    f = _random_spd(rng, 5)
    g = rng.normal(5)
    assert reparam_invariance_check(f, g, np.eye(5)) < 1e-12


def test_reparam_uniform_scaling():
    rng = Rng(40)
    f = _random_spd(rng, 5)
    g = rng.normal(5)
    assert reparam_invariance_check(f, g, 2.0 * np.eye(5)) < 1e-10


def test_reparam_random_well_conditioned():
    rng = Rng(41)
    for _ in range(10):
        n = int(rng.integers(2, 21))
        f = _random_spd(rng, n, shift=1.0)
        g = rng.normal(n)
        q1, _ = np.linalg.qr(rng.normal((n, n)))
        q2, _ = np.linalg.qr(rng.normal((n, n)))
        t = q1 @ np.diag(rng.uniform(0.5, 5.0, shape=n)) @ q2
        assert np.linalg.cond(t) <= 100.0
        assert reparam_invariance_check(f, g, t) < 1e-8


def test_reparam_rejects_size_mismatch():
    with pytest.raises(ValueError, match="sizes"):
        reparam_invariance_check(np.eye(3), np.zeros(3), np.eye(2))
