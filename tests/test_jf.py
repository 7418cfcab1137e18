import numpy as np
import pytest

from geoib.jf import (
    LocalChannel,
    bound_chain_check,
    capacity_logdet,
    draw_probes,
    exact_trace,
    jf_batch,
    jf_hutchinson,
    jf_value_and_grad,
)
from geoib.encoder import LOG_VAR_MIN, SIGMA_SQ_FLOOR, posterior_head
from geoib.nets import LayerSpec, Network
from geoib.rng import Rng
from oracles import central_difference, jf_value_and_grad_replicated


def _net(*specs, seed=None):
    rng = Rng(seed) if seed is not None else None
    return Network([LayerSpec(*s) for s in specs], rng)


def _random_channel(rng, n_out, n_in, with_input_cov=False):
    j = rng.normal((n_out, n_in))
    nc = np.exp(0.5 * rng.normal(n_out))
    c = None
    if with_input_cov:
        q, _ = np.linalg.qr(rng.normal((n_in, n_in)))
        c = q @ np.diag(rng.uniform(shape=n_in)) @ q.T
        c = 0.5 * (c + c.T)
    return LocalChannel(jacobian=j, noise_cov=nc, input_cov=c)


# ----------------------------------------------------------- exact forms


def test_exact_trace_zero_jacobian():
    assert exact_trace(LocalChannel(np.zeros((2, 3)), np.ones(2))) == 0.0


def test_exact_trace_identity():
    assert exact_trace(LocalChannel(np.eye(3), np.ones(3))) == 3.0


def test_exact_trace_worked_example():
    ch = LocalChannel(np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([1.0, 4.0]))
    assert abs(exact_trace(ch) - 5.25) < 1e-15


def test_capacity_zero_jacobian():
    assert capacity_logdet(LocalChannel(np.zeros((2, 2)), np.ones(2))) == 0.0


def test_capacity_scalar_channel():
    ch = LocalChannel(np.array([[1.0]]), np.array([1.0]))
    assert abs(capacity_logdet(ch) - 0.5 * np.log(2.0)) < 1e-15
    assert abs(capacity_logdet(ch) - 0.346574) < 1e-6


def test_capacity_monotone_in_input_cov():
    # shrinking C from I to I/2 can only lower a Gaussian channel capacity
    rng = Rng(0)
    for _ in range(20):
        j = rng.normal((3, 4))
        nc = np.exp(0.5 * rng.normal(3))
        full = capacity_logdet(LocalChannel(j, nc, np.eye(4)))
        half = capacity_logdet(LocalChannel(j, nc, 0.5 * np.eye(4)))
        assert half <= full + 1e-12
        assert abs(full - capacity_logdet(LocalChannel(j, nc))) < 1e-12


def test_linear_gaussian_mi_below_trace_surrogate():
    """For z = Jx + eps with x ~ N(0, C), C <= I, the exact channel MI is
    dominated by half the trace form; both sides in closed form."""
    rng = Rng(1)
    for _ in range(30):
        ch = _random_channel(rng, 3, 4, with_input_cov=True)
        mi = capacity_logdet(ch)
        assert mi <= 0.5 * exact_trace(ch) + 1e-12


# ------------------------------------------------------------ bound chain


def test_bound_chain_zero():
    assert bound_chain_check(LocalChannel(np.zeros((2, 3)), np.ones(2))) == (
        0.0,
        0.0,
        0.0,
    )


def test_bound_chain_identity_2x2():
    lhs, mid, rhs = bound_chain_check(LocalChannel(np.eye(2), np.ones(2)))
    assert abs(lhs - np.log(2.0)) < 1e-12
    assert abs(mid - np.log(2.0)) < 1e-12
    assert abs(rhs - 1.0) < 1e-15
    assert lhs <= rhs


def test_bound_chain_random_channels():
    rng = Rng(2)
    for _ in range(100):
        n_out = int(rng.integers(1, 7))
        n_in = int(rng.integers(1, 7))
        ch = _random_channel(rng, n_out, n_in)
        lhs, mid, rhs = bound_chain_check(ch)
        assert abs(lhs - mid) < 1e-10
        assert mid <= rhs + 1e-12


# -------------------------------------------------------------- channels


def test_channel_validation():
    with pytest.raises(ValueError, match="2-D"):
        LocalChannel(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match="noise_cov"):
        LocalChannel(np.zeros((2, 2)), np.ones(3))
    with pytest.raises(ValueError, match="symmetric"):
        LocalChannel(np.eye(2), np.ones(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        LocalChannel(np.eye(2), np.ones(2), 2.0 * np.eye(2))


def test_channel_floors_noise():
    ch = LocalChannel(np.eye(2), np.zeros(2))
    np.testing.assert_array_equal(ch.noise_cov, [SIGMA_SQ_FLOOR, SIGMA_SQ_FLOOR])
    assert np.isfinite(exact_trace(ch))


# ----------------------------------------------------------------- probes


def test_draw_probes_deterministic():
    a = draw_probes(Rng(3), 4, 2, 3)
    b = draw_probes(Rng(3), 4, 2, 3)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (4, 2, 3)


def test_draw_probes_prefix_stable():
    # one block from the stream: growing S extends, never reshuffles, also
    # when neither block's S*B*d fills a whole number of bytes (30 and 90,
    # 15 and 45, 15 and 105 bits here)
    for n_small, n_large, batch, dim in ((2, 6, 3, 5), (1, 3, 3, 5),
                                         (1, 7, 5, 3)):
        small = draw_probes(Rng(4), n_small, batch, dim)
        large = draw_probes(Rng(4), n_large, batch, dim)
        np.testing.assert_array_equal(large[:n_small], small)


def test_draw_probes_are_the_streams_next_bits_as_signs():
    # the probes are the stream's next S*B*d bits, most significant first,
    # a set bit giving +1, including on stream ids that wrap mod 2**64
    for seed, stream in ((0, 0), (7, 3), (2**70 + 1, 0), (5, 2**64 - 3),
                         (11, 2**63 + 17)):
        n = 9 * 3 * 4
        key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
        raw = np.random.Generator(np.random.Philox(key=key)).bytes(-(-n // 8))
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n)
        want = np.where(bits == 1, 1.0, -1.0).reshape(9, 3, 4)
        got = draw_probes(Rng(seed, stream), 9, 3, 4)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)


def test_draw_probes_entries_are_exactly_plus_or_minus_one():
    probes = draw_probes(Rng(8), 3, 64, 37)
    assert probes.dtype == np.float64
    assert set(np.unique(probes)) == {-1.0, 1.0}


def test_draw_probes_rejects_bad_count():
    with pytest.raises(ValueError, match="positive"):
        draw_probes(Rng(5), 0, 1, 1)


# -------------------------------------------------------------- estimator


def test_hutchinson_zero_net_is_exact_zero():
    net = _net((3, 2, "identity"))
    value, per_probe = jf_hutchinson(net, np.zeros(3), np.ones(2), 7, Rng(6))
    assert value == 0.0
    np.testing.assert_array_equal(per_probe, np.zeros(7))


def test_hutchinson_identity_channel_unbiased():
    # J = I2, Sigma = I: the target is tr(I) = 2, and M = J^T S^-1 J is
    # diagonal, so every Rademacher probe v gives v^T v = 2 exactly
    net = _net((2, 2, "identity"))
    net.blocks[0][:, :-1] = np.eye(2)
    value, per_probe = jf_hutchinson(net, np.zeros(2), np.ones(2), 10_000, Rng(7))
    np.testing.assert_allclose(per_probe, 2.0, rtol=1e-15, atol=0.0)
    assert abs(value - 2.0) <= 1e-15


def test_hutchinson_matches_exact_trace_on_random_nets():
    for seed in range(3):
        net = _net((3, 4, "tanh"), (4, 3, "identity"), seed=seed)
        x = Rng(100 + seed).normal(3)
        nc = np.exp(0.3 * Rng(200 + seed).normal(3))
        ch = LocalChannel(net.explicit_jacobian(x), nc)
        value, per_probe = jf_hutchinson(net, x, nc, 10_000, Rng(300 + seed))
        se = float(per_probe.std(ddof=1) / np.sqrt(per_probe.size))
        assert abs(value - exact_trace(ch)) < 3.0 * se


def test_hutchinson_variance_is_the_rademacher_one():
    """On a linear channel with a dense M = J^T S^-1 J, the per-probe
    variance of one-row estimates is 2(||M||_F^2 - sum_j M_jj^2), below the
    Gaussian 2||M||_F^2.  The sampling bound is four standard errors of
    the sample variance, estimated from the same probes' fourth central
    moment."""
    rng = Rng(14)
    j = rng.normal((3, 5))
    nc = np.exp(0.5 * rng.normal(3))
    net = _net((5, 3, "identity"))
    net.blocks[0][:, :-1] = j
    m = j.T @ (j / nc[:, None])
    want = 2.0 * (np.sum(m * m) - np.sum(np.diag(m) ** 2))
    n = 40_000
    _, per_probe = jf_hutchinson(net, np.zeros(5), nc, n, Rng(15))
    centred = per_probe - per_probe.mean()
    var = float(np.mean(centred**2))
    se_var = float(np.sqrt((np.mean(centred**4) - var**2) / n))
    assert abs(var - want) < 4.0 * se_var
    assert 2.0 * np.sum(m * m) - want > 8.0 * se_var


def test_hutchinson_single_equals_batch_of_one():
    net = _net((3, 2, "tanh"), seed=8)
    x = Rng(9).normal(3)
    a, _ = jf_hutchinson(net, x, np.ones(2), 5, Rng(10))
    b, _ = jf_hutchinson(net, x[None, :], np.ones(2), 5, Rng(10))
    assert a == b


def test_hutchinson_fixed_probes_reproducible():
    # the estimator is jf_batch on the probes it draws from its stream, so
    # the same probes replay it exactly
    net = _net((3, 2, "tanh"), seed=11)
    x = Rng(12).normal((4, 3))
    net.forward(x, capture=True)
    values, per_probe = jf_batch(net, np.ones(2), draw_probes(Rng(13), 3, 4, 3))
    value, est_per_probe = jf_hutchinson(net, x, np.ones(2), 3, Rng(13))
    assert value == float(values.mean())
    np.testing.assert_array_equal(est_per_probe, per_probe)


def test_head_dim_restricts_penalty():
    # a two-output head on a four-output net: only its rows of J count
    net = _net((3, 5, "tanh"), (5, 4, "identity"), seed=17)
    x = Rng(18).normal(3)
    probes = draw_probes(Rng(19), 2000, 1, 3)
    j_full = net.explicit_jacobian(x)
    ch_head = LocalChannel(j_full[:2], np.ones(2))
    net.forward(x[None, :], capture=True)
    values, per_probe = jf_batch(net, np.ones(2), probes, head_dim=2)
    se = float(per_probe.std(ddof=1) / np.sqrt(per_probe.size))
    assert abs(values[0] - exact_trace(ch_head)) < 4.0 * se
    with pytest.raises(ValueError, match="head_dim"):
        jf_batch(net, np.ones(5), probes, head_dim=5)


# -------------------------------------------------------------- isotropic


def test_isotropic_doubling_halves_exactly():
    net = _net((3, 2, "tanh"), seed=25)
    x = Rng(26).normal(3)
    probes = draw_probes(Rng(27), 4, 1, 3)
    net.forward(x[None, :], capture=True)
    one, _ = jf_batch(net, np.full(2, 1.0), probes)
    two, _ = jf_batch(net, np.full(2, 2.0), probes)
    assert two[0] == one[0] / 2.0


def test_isotropic_identity_exact_value():
    # ||I2||_F^2 / 4 = 0.5
    ch = LocalChannel(np.eye(2), np.full(2, 4.0))
    assert exact_trace(ch) == 0.5
    net = _net((2, 2, "identity"))
    net.blocks[0][:, :-1] = np.eye(2)
    value, per_probe = jf_hutchinson(net, np.zeros(2), np.full(2, 4.0), 4000,
                                     Rng(30))
    # a diagonal M: every probe gives the exact value
    np.testing.assert_allclose(per_probe, 0.5, rtol=1e-15, atol=0.0)
    assert abs(value - 0.5) <= 1e-15


def test_isotropic_floors_variance():
    net = _net((2, 2, "identity"))
    net.blocks[0][:, :-1] = np.eye(2)
    probes = draw_probes(Rng(31), 2, 1, 2)
    net.forward(np.zeros((1, 2)), capture=True)
    a, _ = jf_batch(net, np.zeros(2), probes)
    b, _ = jf_batch(net, np.full(2, SIGMA_SQ_FLOOR), probes)
    assert np.isfinite(a[0]) and a[0] == b[0]


# --------------------------------------------------------------- gradient


def _log_var(net, x, k):
    """The clamped log-variances of the net's captured pass at x."""
    return posterior_head(net.forward(x, capture=True), k)[1]


def _clamp_unit(net, k, unit):
    """Hold log-variance `unit` below LOG_VAR_MIN on every row."""
    net.blocks[-1][k + unit] = 0.0
    net.blocks[-1][k + unit, -1] = LOG_VAR_MIN - 8.0


def test_value_and_grad_matches_batch_values():
    net = _net((3, 4, "tanh"), (4, 2, "identity"), seed=34)
    x = Rng(35).normal((5, 3))
    probes = draw_probes(Rng(36), 2, 5, 3)
    lv = _log_var(net, x, 1)
    values, grad = jf_value_and_grad(net, lv, probes)
    ref, _ = jf_batch(net, np.exp(lv), probes, head_dim=1)
    np.testing.assert_array_equal(values, ref)
    assert grad.shape == (net.n_params,)


def test_value_and_grad_matches_finite_differences():
    # the gradient runs through the Jacobian and through the noise scale
    # exp(log_var) alike
    net = _net((3, 4, "tanh"), (4, 4, "softplus"), seed=37)
    x = Rng(38).normal((4, 3))
    probes = draw_probes(Rng(40), 2, 4, 3)
    _, analytic = jf_value_and_grad(net, _log_var(net, x, 2), probes)

    def total(flat):
        clone = net.copy()
        clone.set_params(flat)
        values, _ = jf_batch(clone, np.exp(_log_var(clone, x, 2)), probes,
                             head_dim=2)
        return float(values.sum())

    fd = central_difference(total, net.get_params())
    rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-6)
    assert float(rel.max()) < 1e-4


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("hidden", ["tanh", "softplus"])
@pytest.mark.parametrize("n_probes, batch", [(2, 32), (2, 1), (1, 1)])
def test_value_and_grad_gives_the_replicated_bits(hidden, n_probes, batch):
    """The gradient route reads the captured pass and gives the bits of
    the replicated-pass oracle in the fused order, with and without an
    output adjoint, and agrees with the unfused order to round-off; a
    hidden unit with no outgoing weights and a log-variance unit clamped
    on every row leave exact zeros in the penalty's gradient."""
    net = _net((3, 5, hidden), (5, 4, "identity"), seed=50)
    net.blocks[1][:, 2] = 0.0
    _clamp_unit(net, 2, 1)
    x = Rng(51).normal((batch, 3))
    probes = draw_probes(Rng(53), n_probes, batch, 3)
    upstream = Rng(54).normal((batch, 4))
    lv = _log_var(net, x, 2)
    values, grad = jf_value_and_grad(net, lv, probes)
    want_values, want_grad = jf_value_and_grad_replicated(net, x, lv, probes)
    assert np.array_equal(_bits(values), _bits(want_values))
    assert np.array_equal(_bits(grad), _bits(want_grad))
    assert np.count_nonzero(grad == 0.0) >= 6 + 4
    _, unfused = jf_value_and_grad_replicated(net, x, lv, probes, fused=False)
    assert np.max(np.abs(grad - unfused)) <= 1e-13 * np.max(np.abs(unfused))
    values, grad = jf_value_and_grad(net, lv, probes, upstream=upstream,
                                     weight=0.25)
    _, want_grad = jf_value_and_grad_replicated(
        net, x, lv, probes, upstream=upstream, weight=0.25)
    assert np.array_equal(_bits(values), _bits(want_values))
    assert np.array_equal(_bits(grad), _bits(want_grad))
    _, unfused = jf_value_and_grad_replicated(
        net, x, lv, probes, upstream=upstream, weight=0.25, fused=False)
    assert np.max(np.abs(grad - unfused)) <= 1e-13 * np.max(np.abs(unfused))


@pytest.mark.parametrize("hidden", ["tanh", "softplus"])
@pytest.mark.parametrize("n_probes", [1, 2, 3])
@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("clamped_unit", [None, 2])
def test_value_and_grad_with_an_upstream_is_the_sum_of_two_passes(
        hidden, n_probes, batch, clamped_unit):
    """One reverse pass seeded with an output adjoint U and the penalty's
    weight w gives backward(U) + w * (the penalty's own gradient), to
    round-off, with every log-variance inside the clamp or one clamped on
    every row, and the penalty's values are unchanged."""
    net = _net((3, 5, hidden), (5, 6, "identity"), seed=57)
    if clamped_unit is not None:
        _clamp_unit(net, 3, clamped_unit)
    x = Rng(58).normal((batch, 3))
    probes = draw_probes(Rng(60), n_probes, batch, 3)
    upstream = Rng(61).normal((batch, 6))
    lv = _log_var(net, x, 3)
    values, fused = jf_value_and_grad(net, lv, probes, upstream=upstream,
                                      weight=0.3)
    alone_values, alone = jf_value_and_grad(net, lv, probes)
    want = net.backward(upstream) + 0.3 * alone
    assert np.array_equal(_bits(values), _bits(alone_values))
    assert np.max(np.abs(fused - want)) <= 1e-13 * np.max(np.abs(want))


def test_value_and_grad_requires_a_captured_pass():
    net = _net((3, 2, "tanh"), seed=54)
    probes = draw_probes(Rng(55), 2, 4, 3)
    with pytest.raises(RuntimeError, match="captured forward"):
        jf_value_and_grad(net, np.zeros((4, 1)), probes)
    net.forward(Rng(56).normal((5, 3)), capture=True)
    with pytest.raises(ValueError, match="same B"):
        jf_value_and_grad(net, np.zeros((4, 1)), probes)


def test_value_and_grad_requires_a_mean_and_a_log_variance_head():
    probes = draw_probes(Rng(64), 2, 5, 3)
    for out, log_var, msg in ((4, np.zeros((5, 1)), r"\(5, 2\) for a net with 4"),
                              (4, np.zeros((4, 2)), r"\(5, 2\) for a net with 4"),
                              (3, np.zeros((5, 1)), r"\(5, 1\) for a net with 3")):
        net = _net((3, out, "tanh"), seed=62)
        net.forward(Rng(63).normal((5, 3)), capture=True)
        with pytest.raises(ValueError, match=msg):
            jf_value_and_grad(net, log_var, probes)
