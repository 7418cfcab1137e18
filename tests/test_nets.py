import tracemalloc

import numpy as np
import pytest

from geoib.nets import ACTIVATIONS, LayerSpec, Network, layer_blocks
from geoib.rng import Rng
from oracles import backward_by_layer, central_difference, replicated_jvp


def _net(*specs, seed=None):
    rng = Rng(seed) if seed is not None else None
    return Network([LayerSpec(*s) for s in specs], rng)


# every activation in the hidden and in the output slot of a net
SLOTS = [(act, slot) for act in ACTIVATIONS for slot in ("hidden", "output")]


def _bits(a) -> np.ndarray:
    """The float64 entries of a as integers, so that +0 and -0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _within_round_off(got, want) -> bool:
    """Every entry of got within 1e-13 of want's largest magnitude."""
    return float(np.max(np.abs(got - want))) <= 1e-13 * float(np.max(np.abs(want)))


def _jvp(net, x, v):
    """J(x) v for one input: a one-row capture read by one probe."""
    net.forward(x[None, :], capture=True)
    u, _ = net.jvp_captured(v[None, None, :])
    return u[0, 0]


# ----------------------------------------------------------------- forward


def test_forward_zero_net_outputs_zero():
    net = _net((3, 2, "identity"))
    np.testing.assert_array_equal(net.forward(np.ones((4, 3))), np.zeros((4, 2)))


def test_forward_identity_weights():
    net = _net((3, 3, "identity"))
    net.blocks[0][:, :-1] = np.eye(3)
    x = Rng(0).normal((5, 3))
    np.testing.assert_array_equal(net.forward(x), x)


def test_forward_scalar_tanh():
    net = _net((1, 1, "tanh"))
    net.blocks[0][:, :-1] = 2.0
    out = net.forward(np.array([[1.0]]))
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - np.tanh(2.0)) < 1e-15
    assert abs(out[0, 0] - 0.964028) < 1e-6


def test_forward_shape_checked():
    net = _net((3, 2, "identity"))
    with pytest.raises(ValueError, match="input has shape"):
        net.forward(np.ones((4, 2)))
    with pytest.raises(ValueError, match="input has shape"):
        net.forward(np.ones(3))


def test_layer_dims_must_chain():
    with pytest.raises(ValueError, match="chain"):
        _net((3, 2, "tanh"), (3, 1, "identity"))


def test_init_respects_fan_bound():
    net = _net((10, 6, "tanh"), seed=0)
    bound = np.sqrt(6.0 / 16.0)
    assert np.all(np.abs(net.blocks[0][:, :-1]) <= bound)
    np.testing.assert_array_equal(net.blocks[0][:, -1], np.zeros(6))


# ---------------------------------------------------------------- backward


def test_backward_zero_upstream():
    net = _net((3, 4, "tanh"), (4, 2, "identity"), seed=1)
    net.forward(Rng(2).normal((5, 3)), capture=True)
    grad = net.backward(np.zeros((5, 2)))
    np.testing.assert_array_equal(grad, np.zeros(net.n_params))


def test_backward_scalar_chain_rule():
    # linear 1x1 net, x = 3, upstream = 1: dW = 3, db = 1
    net = _net((1, 1, "identity"))
    net.blocks[0][:, :-1] = 0.7
    net.forward(np.array([[3.0]]), capture=True)
    g = net.backward(np.array([[1.0]]))
    np.testing.assert_allclose(g, [3.0, 1.0], rtol=0, atol=1e-15)


def test_backward_requires_capture():
    net = _net((2, 2, "identity"), seed=0)
    net.forward(np.ones((1, 2)))
    with pytest.raises(RuntimeError, match="captured"):
        net.backward(np.ones((1, 2)))


def test_backward_rejects_a_single_upstream_vector():
    net = _net((2, 2, "identity"), seed=0)
    net.forward(np.ones((1, 2)), capture=True)
    with pytest.raises(ValueError, match="upstream has shape"):
        net.backward(np.ones(2))


@pytest.mark.parametrize("act,slot", SLOTS)
def test_backward_matches_finite_differences(act, slot):
    """Sum-convention gradient of sum(upstream * output) over every
    parameter of a three-layer net, against the central-difference oracle,
    with `act` in the middle (hidden) or last (output) layer."""
    hidden = act if slot == "hidden" else "softplus"
    out = act if slot == "output" else "identity"
    net = _net((4, 5, "tanh"), (5, 4, hidden), (4, 3, out), seed=3)
    rng = Rng(4)
    x = rng.normal((6, 4))
    upstream = rng.normal((6, 3))
    net.forward(x, capture=True)
    analytic = net.backward(upstream)

    def value(flat):
        clone = net.copy()
        clone.set_params(flat)
        return float(np.sum(upstream * clone.forward(x)))

    fd = central_difference(value, net.get_params())
    rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-6)
    assert float(rel.max()) < 1e-5


def test_backward_input_grad():
    net = _net((3, 3, "tanh"), seed=5)
    x = Rng(6).normal((2, 3))
    upstream = Rng(7).normal((2, 3))
    net.forward(x, capture=True)
    _, dx = net.backward(upstream, return_input_grad=True)

    def value(flat_x):
        return float(np.sum(upstream * net.forward(flat_x.reshape(2, 3))))

    fd = central_difference(value, x.ravel()).reshape(2, 3)
    np.testing.assert_allclose(dx, fd, rtol=1e-6, atol=1e-9)


# --------------------------------------------------------------------- jvp


def test_jvp_zero_tangent():
    net = _net((3, 4, "tanh"), (4, 2, "softplus"), seed=8)
    x = Rng(9).normal(3)
    np.testing.assert_array_equal(_jvp(net, x, np.zeros(3)), np.zeros(2))


def test_jvp_linear_net_is_weight_chain():
    # identity activations: J = W2 W1 regardless of x
    net = _net((3, 4, "identity"), (4, 2, "identity"), seed=10)
    rng = Rng(11)
    v = rng.normal(3)
    expect = net.blocks[1][:, :-1] @ (net.blocks[0][:, :-1] @ v)
    for _ in range(3):
        x = rng.normal(3)
        np.testing.assert_allclose(_jvp(net, x, v), expect, rtol=0, atol=1e-14)


def test_jvp_matches_finite_differences():
    net = _net((4, 5, "tanh"), (5, 3, "softplus"), seed=12)
    rng = Rng(13)
    x = rng.normal((6, 4))
    v = rng.normal((6, 4))
    h = 1e-5
    fd = (net.forward(x + h * v) - net.forward(x - h * v)) / (2.0 * h)
    net.forward(x, capture=True)
    got, _ = net.jvp_captured(v[None])
    rel = np.abs(got[0] - fd) / np.maximum(np.abs(fd), 1e-6)
    assert float(rel.max()) < 1e-5


def test_jvp_linearity():
    net = _net((3, 4, "tanh"), (4, 2, "identity"), seed=14)
    rng = Rng(15)
    x = rng.normal(3)
    v, w = rng.normal(3), rng.normal(3)
    a, b = 0.7, -1.3
    combined = _jvp(net, x, a * v + b * w)
    split = a * _jvp(net, x, v) + b * _jvp(net, x, w)
    np.testing.assert_allclose(combined, split, rtol=0, atol=1e-12)


def test_jvp_per_sample_tangents():
    net = _net((2, 3, "tanh"), seed=16)
    rng = Rng(17)
    x = rng.normal((4, 2))
    v = rng.normal((3, 4, 2))
    net.forward(x, capture=True)
    u, _ = net.jvp_captured(v)
    for s in range(3):
        for i in range(4):
            np.testing.assert_allclose(u[s, i], _jvp(net, x[i], v[s, i]),
                                       rtol=0, atol=1e-14)


# nets whose layers hold every kind of derivative the passes branch on:
# tanh and softplus hidden layers, two identity layers at the top, and an
# identity layer below a nonlinear one
CAPTURED_NETS = {
    "tanh": ((8, 32, "tanh"), (32, 16, "identity")),
    "softplus": ((6, 9, "softplus"), (9, 4, "identity")),
    "identity_top": ((5, 7, "tanh"), (7, 6, "identity"), (6, 4, "identity")),
    "identity_below": ((5, 7, "identity"), (7, 6, "softplus"), (6, 4, "identity")),
}


def _biased_net(specs, seed):
    net = _net(*specs, seed=seed)
    rng = Rng(seed + 1)
    for blk in net.blocks:
        blk[:, -1] = rng.normal(blk.shape[0])
    return net


# training's shapes (2 probes, a full and two tail batches of a mixture
# encoder, the "tanh" net) and the Hutchinson check's (10,000 probes of one
# row, a verify-sized net such as "softplus"), and more
@pytest.mark.parametrize("name", CAPTURED_NETS)
@pytest.mark.parametrize("n_probes, batch", [(2, 128), (2, 44), (2, 5), (3, 7),
                                             (1, 1), (2, 1), (10_000, 1)])
def test_jvp_captured_matches_replicated_pass_bit_for_bit(name, n_probes, batch):
    """The JVP read from a captured pass, at every row count, gives the
    bits of a tangent pass over x replicated S times, in the tangents and
    in the adjoint gradient, with and without an output adjoint seeding
    the primal track, whose adjoint is summed over the probes before f''.
    The adjoint of the time before the output adjoint joined it, plus a
    backward pass for that adjoint, agrees to round-off."""
    net = _biased_net(CAPTURED_NETS[name], seed=40)
    rng = Rng(41)
    x = rng.normal((batch, net.in_dim))
    v = rng.normal((n_probes, batch, net.in_dim))
    u_bar = rng.normal((n_probes, batch, net.out_dim))
    upstream = rng.normal((batch, net.out_dim))
    net.forward(x, capture=True)
    u, cache = net.jvp_captured(v)
    u_ref, grad_ref = replicated_jvp(net, x, v, u_bar)
    assert np.array_equal(_bits(u), _bits(u_ref))
    grad = net.jvp_adjoint(cache, u_bar, np.zeros((batch, net.out_dim)))
    assert np.array_equal(_bits(grad), _bits(grad_ref))
    _, unfused = replicated_jvp(net, x, v, u_bar, fused=False)
    assert _within_round_off(grad, unfused)
    both = net.jvp_adjoint(cache, u_bar, upstream)
    _, both_ref = replicated_jvp(net, x, v, u_bar, upstream)
    assert np.array_equal(_bits(both), _bits(both_ref))
    two_passes = backward_by_layer(net, x, upstream)[0] + unfused
    assert _within_round_off(both, two_passes)


def test_jvp_adjoint_at_a_negative_zero_second_derivative():
    """A tanh unit at pre-activation 0 has second derivative -0, so its
    tangent-track term is -0, summed over the probes or not, where the
    primal-track adjoint adds a +0 from above; the adjoint gradient keeps
    the replicated bits and the unit's bias gradient is +0, as in the
    unfused adjoint, which agrees to round-off."""
    net = _net((3, 4, "tanh"), (4, 2, "identity"), seed=45)
    net.blocks[0][0] = [1.0, 0.0, 0.0, 0.0]
    net.blocks[1][:, 0] = np.abs(net.blocks[1][:, 0])
    rng = Rng(46)
    x = rng.normal((5, 3))
    x[:, 0] = 0.0
    v = np.abs(rng.normal((2, 5, 3)))
    u_bar = np.abs(rng.normal((2, 5, 2)))
    net.forward(x, capture=True)
    _, cache = net.jvp_captured(v)
    grad = net.jvp_adjoint(cache, u_bar, np.zeros((5, 2)))
    _, grad_ref = replicated_jvp(net, x, v, u_bar)
    assert np.array_equal(_bits(grad), _bits(grad_ref))
    assert not np.signbit(layer_blocks(grad, net.shapes)[0][0, -1])
    _, unfused = replicated_jvp(net, x, v, u_bar, fused=False)
    assert _within_round_off(grad, unfused)
    assert not np.signbit(layer_blocks(unfused, net.shapes)[0][0, -1])


def test_jvp_adjoint_holds_no_replicated_input_rows():
    """On a digits-sized encoder (784 inputs, 2 probes of 128 rows) the
    adjoint's traced peak stays below one (S*B, 784) float64 array: the
    input rows are never copied once per probe."""
    net = _net((784, 32, "tanh"), (32, 64, "identity"), seed=60)
    rng = Rng(61)
    x = rng.normal((128, 784))
    v = rng.normal((2, 128, 784))
    u_bar = rng.normal((2, 128, 64))
    net.forward(x, capture=True)
    _, cache = net.jvp_captured(v)
    upstream = np.zeros((128, 64))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        net.jvp_adjoint(cache, u_bar, upstream)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < v.nbytes


def test_jvp_captured_requires_a_matching_capture():
    net = _net((3, 2, "tanh"), seed=42)
    with pytest.raises(RuntimeError, match="captured forward"):
        net.jvp_captured(np.zeros((2, 4, 3)))
    net.forward(np.zeros((4, 3)), capture=True)
    with pytest.raises(ValueError, match="same B"):
        net.jvp_captured(np.zeros((2, 5, 3)))
    with pytest.raises(ValueError, match="same B"):
        net.jvp_captured(np.zeros((4, 3)))


def test_jvp_adjoint_refuses_an_upstream_of_another_shape():
    net = _net((3, 2, "tanh"), seed=43)
    net.forward(np.zeros((4, 3)), capture=True)
    _, cache = net.jvp_captured(np.zeros((2, 4, 3)))
    with pytest.raises(ValueError, match="upstream has shape"):
        net.jvp_adjoint(cache, np.zeros((2, 4, 2)), np.zeros((2, 4, 2)))


# ------------------------------------------------------- explicit jacobian


def test_explicit_jacobian_identity_net():
    net = _net((3, 3, "identity"))
    net.blocks[0][:, :-1] = np.eye(3)
    np.testing.assert_array_equal(net.explicit_jacobian(np.ones(3)), np.eye(3))


def test_explicit_jacobian_linear_chain():
    net = _net((3, 4, "identity"), (4, 2, "identity"), seed=18)
    j = net.explicit_jacobian(Rng(19).normal(3))
    np.testing.assert_allclose(j, net.blocks[1][:, :-1] @ net.blocks[0][:, :-1],
                               rtol=0, atol=1e-14)


def test_explicit_jacobian_consistent_with_jvp():
    net = _net((4, 5, "softplus"), (5, 3, "tanh"), seed=20)
    rng = Rng(21)
    x = rng.normal(4)
    j = net.explicit_jacobian(x)
    for _ in range(5):
        v = rng.normal(4)
        np.testing.assert_allclose(_jvp(net, x, v), j @ v, rtol=0, atol=1e-12)


def test_explicit_jacobian_size_guard():
    net = _net((200, 51, "identity"))
    with pytest.raises(ValueError, match="guard"):
        net.explicit_jacobian(np.zeros(200))


# ----------------------------------------------------------- jvp adjoint


@pytest.mark.parametrize("act,slot", SLOTS)
def test_jvp_adjoint_matches_finite_differences(act, slot):
    """Gradient of sum(u_bar * J(x)v) w.r.t. parameters: the reverse pass
    over the forward tangent must agree with differentiating the JVP, with
    `act` in the first (hidden) or last (output) layer."""
    hidden = act if slot == "hidden" else "tanh"
    out = act if slot == "output" else "softplus"
    net = _net((3, 4, hidden), (4, 2, out), seed=22)
    rng = Rng(23)
    x = rng.normal((5, 3))
    v = rng.normal((2, 5, 3))
    u_bar = rng.normal((2, 5, 2))
    net.forward(x, capture=True)
    _, cache = net.jvp_captured(v)
    analytic = net.jvp_adjoint(cache, u_bar, np.zeros((5, 2)))

    def value(flat):
        clone = net.copy()
        clone.set_params(flat)
        clone.forward(x, capture=True)
        u, _ = clone.jvp_captured(v)
        return float(np.sum(u_bar * u))

    fd = central_difference(value, net.get_params())
    rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-6)
    assert float(rel.max()) < 1e-5


# ----------------------------------------------------------------- capture


def test_captured_stats_match_recomputation():
    net = _net((3, 4, "tanh"), (4, 2, "identity"), seed=24)
    rng = Rng(25)
    x = rng.normal((6, 3))
    net.forward(x, capture=True)
    net.backward(rng.normal((6, 2)))
    acts, grads_pre = net.captured_stats()
    np.testing.assert_array_equal(acts[0], x)
    # layer-1 input is the recomputed tanh activation of layer 0
    w, b = net.blocks[0][:, :-1], net.blocks[0][:, -1]
    recomputed = np.tanh(x @ w.T + b)
    np.testing.assert_allclose(acts[1], recomputed, rtol=0, atol=1e-15)
    assert grads_pre[0].shape == (6, 4) and grads_pre[1].shape == (6, 2)


@pytest.mark.parametrize("name", CAPTURED_NETS)
def test_backward_and_backward_deltas_record_the_layer_by_layer_bits(name):
    """backward and its pre-activation-only route record the bits of a
    layer-by-layer pass that evaluates every derivative, and backward
    returns that pass's gradients."""
    net = _biased_net(CAPTURED_NETS[name], seed=43)
    rng = Rng(44)
    x = rng.normal((9, net.in_dim))
    upstream = rng.normal((9, net.out_dim))
    upstream[0, 0] = -0.0
    grad_ref, pre_ref, dx_ref = backward_by_layer(net, x, upstream)
    net.forward(x, capture=True)
    net.backward_deltas(upstream)
    acts, deltas = net.captured_stats()
    net.forward(x, capture=True)
    grad, dx = net.backward(upstream, return_input_grad=True)
    acts_full, deltas_full = net.captured_stats()
    for got, got_full, want in zip(deltas, deltas_full, pre_ref):
        assert np.array_equal(_bits(got), _bits(want))
        assert np.array_equal(_bits(got_full), _bits(want))
    for a, a_full in zip(acts, acts_full):
        assert np.array_equal(_bits(a), _bits(a_full))
    assert np.array_equal(_bits(grad), _bits(grad_ref))
    assert np.array_equal(_bits(dx), _bits(dx_ref))


def test_backward_deltas_require_capture():
    net = _net((2, 2, "tanh"), seed=0)
    with pytest.raises(RuntimeError, match="captured"):
        net.backward_deltas(np.ones((1, 2)))
    net.forward(np.ones((1, 2)), capture=True)
    with pytest.raises(ValueError, match="upstream has shape"):
        net.backward_deltas(np.ones((2, 2)))


def test_captured_stats_require_both_passes():
    net = _net((2, 2, "identity"), seed=26)
    net.forward(np.ones((1, 2)), capture=True)
    with pytest.raises(RuntimeError):
        net.captured_stats()


# --------------------------------------------------------------------- io


def test_params_round_trip():
    net = _net((3, 4, "tanh"), (4, 2, "identity"), seed=27)
    flat = net.get_params()
    clone = _net((3, 4, "tanh"), (4, 2, "identity"))
    clone.set_params(flat)
    np.testing.assert_array_equal(clone.get_params(), flat)
    assert flat.shape[0] == net.n_params == (3 + 1) * 4 + (4 + 1) * 2


def test_get_params_returns_a_copy():
    net = _net((3, 4, "tanh"), (4, 2, "identity"), seed=30)
    x = Rng(31).normal((5, 3))
    before = net.forward(x)
    flat = net.get_params()
    flat[:] = 0.0
    np.testing.assert_array_equal(net.forward(x), before)
    assert np.any(net.get_params())


def test_set_params_copies_its_input():
    net = _net((3, 4, "tanh"), (4, 2, "identity"), seed=32)
    flat = Rng(33).normal(net.n_params)
    net.set_params(flat)
    flat[:] = 0.0
    np.testing.assert_array_equal(net.get_params(), Rng(33).normal(net.n_params))


def test_block_views_write_through_to_params_and_forward():
    net = _net((2, 2, "identity"), (2, 1, "identity"), seed=34)
    x = Rng(35).normal((3, 2))
    before = net.forward(x)
    net.blocks[1][0, -1] += 1.0
    np.testing.assert_allclose(net.forward(x), before + 1.0, rtol=0, atol=1e-15)
    # layer 1's bias is the last entry of the flat vector
    assert net.params[-1] == net.blocks[1][0, 2]
    net.params[:6] = 0.0
    np.testing.assert_array_equal(net.blocks[0], np.zeros((2, 3)))


def test_layer_blocks_cut_row_major_views():
    shapes = [(3, 4), (2, 3)]
    flat = np.arange(18.0)
    blocks = layer_blocks(flat, shapes)
    np.testing.assert_array_equal(blocks[0], np.arange(12.0).reshape(3, 4))
    np.testing.assert_array_equal(blocks[1], np.arange(12.0, 18.0).reshape(2, 3))
    blocks[1][1, 2] = -1.0
    assert flat[17] == -1.0
    with pytest.raises(ValueError, match="entries"):
        layer_blocks(flat[:-1], shapes)


def test_save_load_round_trip(tmp_path):
    net = _net((3, 4, "softplus"), (4, 2, "identity"), seed=28)
    path = tmp_path / "net.bin"
    net.save(path)
    loaded = Network.load(path)
    assert loaded.specs == net.specs
    np.testing.assert_array_equal(loaded.get_params(), net.get_params())


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"nope 3:tanh:4\n" + b"\x00" * 8)
    with pytest.raises(ValueError, match="not a network file"):
        Network.load(path)


@pytest.mark.parametrize("header, reason", [
    ("net a:tanh:3", "invalid literal for int"),
    ("net 2:relu:3", "activation must be one of"),
    ("net 0:tanh:3", "layer dims must be positive"),
    ("net 2:tanh:3 4:identity:1", "layer dims do not chain: 3 -> 4"),
    ("net 2:tanh", "bad layer token"),
    ("net", "network needs at least one layer"),
])
def test_load_names_the_file_for_a_malformed_header(tmp_path, header, reason):
    path = tmp_path / "bad.net"
    path.write_bytes(header.encode("ascii") + b"\n" + b"\x00" * 8)
    with pytest.raises(ValueError) as info:
        Network.load(path)
    assert str(info.value).startswith(f"{path}: ")
    assert reason in str(info.value)


def test_load_rejects_short_payload(tmp_path):
    net = _net((2, 2, "identity"), seed=29)
    path = tmp_path / "short.bin"
    net.save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="payload"):
        Network.load(path)
