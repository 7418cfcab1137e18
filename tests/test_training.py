import csv
import inspect
import json
import os
import platform
import resource
import subprocess
import sys
import threading
import tracemalloc
import weakref
from dataclasses import asdict, astuple, replace

import numpy as np
import pytest

from geoib.config import TrainConfig
from geoib.data import gauss_mixture, make_dataset, write_digit_corpus
from geoib import mi, training
from geoib.encoder import (
    LOG_VAR_MIN,
    fr_quadratic_proxy,
    kl_to_standard_normal,
    posterior_head,
)
from geoib.fisher import fisher_vector_product, kfac_init
from geoib.jf import draw_probes
from geoib.mi import (
    CSV_COLUMNS,
    PROBE_NAME,
    InfoPlanePoint,
    classification_accuracy,
    inversion_probe,
    mi_knn,
    point_row,
    read_points_jsonl,
)
from geoib.nets import LayerSpec, Network
from geoib.rng import Rng
from geoib.training import (
    REVISION,
    TrainingDiverged,
    build_nets,
    evaluate_run,
    geoib_loss_and_grads,
    gib_step,
    posterior_means,
    run_sweep,
    run_training,
    train_step,
)
from oracles import (
    central_difference,
    jf_value_and_grad_replicated,
    sampled_capture_two_forward,
)

TOY = "gauss_mixture:n=600,noise=0.1,classes=2,dim=2"


def _toy_setup(cfg, seed=0):
    ds = gauss_mixture(600, 0.1, seed=seed, classes=2, dim=2)
    root = Rng(cfg.seed)
    enc, dec = build_nets(cfg, ds.n_features, ds.n_classes, root)
    ke = kfac_init(enc, cfg.damping, cfg.kfac_decay)
    kd = kfac_init(dec, cfg.damping, cfg.kfac_decay)
    x, y = ds.split("train")
    return ds, root, enc, dec, ke, kd, x, y


# ------------------------------------------------------------------- nets


def test_build_nets_shapes():
    cfg = TrainConfig(k_dim=4, enc_hidden="32", dec_hidden="16")
    enc, dec = build_nets(cfg, d_in=8, n_classes=3, root=Rng(0))
    assert [(s.in_dim, s.out_dim, s.activation) for s in enc.specs] == [
        (8, 32, "tanh"), (32, 8, "identity")]
    assert [(s.in_dim, s.out_dim, s.activation) for s in dec.specs] == [
        (4, 16, "tanh"), (16, 3, "identity")]
    enc2, dec2 = build_nets(cfg, d_in=8, n_classes=3, root=Rng(0))
    np.testing.assert_array_equal(enc.get_params(), enc2.get_params())
    np.testing.assert_array_equal(dec.get_params(), dec2.get_params())


# ------------------------------------------------------------- objectives


def test_beta_zero_objectives_agree():
    # without the multiplier the JF term and the rate drop out: geoib's
    # objective and VIB's, the KL without probes, share loss and gradients
    cfg = TrainConfig(beta=0.0, k_dim=2, enc_hidden="8", dataset=TOY)
    _, _, enc, dec, _, _, x, y = _toy_setup(cfg)
    x, y = x[:32], y[:32]
    eps = Rng(1).normal((32, 2))
    kwargs = dict(beta=0.0, k_dim=2, eps=eps)
    mg, ge_g, gd_g, _ = geoib_loss_and_grads(
        enc, dec, x, y, rate=fr_quadratic_proxy,
        probes=draw_probes(Rng(2), 2, 32, 2), **kwargs)
    mv, ge_v, gd_v, _ = geoib_loss_and_grads(
        enc, dec, x, y, rate=kl_to_standard_normal, probes=None, **kwargs)
    assert mg.total == mv.total == mg.nll == mv.nll
    assert mv.jf == 0.0 < mg.jf
    np.testing.assert_array_equal(ge_g, ge_v)
    np.testing.assert_array_equal(gd_g, gd_v)


def _primal_passes(monkeypatch) -> list:
    """The networks of every primal pass from here on, in call order."""
    primal, passes = Network._primal, []

    def counted(net, *args, **kwargs):
        passes.append(net)
        return primal(net, *args, **kwargs)

    monkeypatch.setattr(Network, "_primal", counted)
    return passes


def test_want_grads_false_returns_metrics_only(monkeypatch):
    cfg = TrainConfig(k_dim=2, enc_hidden="8", dataset=TOY)
    _, _, enc, dec, _, _, x, y = _toy_setup(cfg)
    eps = Rng(3).normal((16, 2))
    probes = draw_probes(Rng(4), 2, 16, 2)
    passes = _primal_passes(monkeypatch)
    m = geoib_loss_and_grads(
        enc, dec, x[:16], y[:16], beta=cfg.beta, rate=fr_quadratic_proxy,
        k_dim=2, eps=eps, probes=probes, want_grads=False)
    assert np.isfinite(m.total) and m.fr >= 0.0 and m.jf >= 0.0
    assert abs(m.total - (m.nll + cfg.beta * (m.fr + m.jf))) < 1e-12
    # one primal pass per network: the penalty reads the encoder's capture
    assert passes == [enc, dec]


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _csv_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("rows", [1, 32])
def test_loss_and_grads_give_the_bits_of_a_jf_pass_of_its_own(monkeypatch, rows):
    # the penalty's JVPs read the loss's captured encoder pass; a one-row
    # batch with two probes runs its padded primal again.  Either way the
    # metrics and gradients are those of the replicated-pass route in the
    # fused order, one reverse pass seeded with the loss's encoder
    # upstream, and agree to round-off with the unfused route, a backward
    # pass for the loss plus beta times the penalty's own adjoint
    cfg = TrainConfig(k_dim=2, enc_hidden="8", dataset=TOY, beta=0.5)
    _, _, enc, dec, _, _, x, y = _toy_setup(cfg)
    x, y = x[:rows], y[:rows]
    kwargs = dict(beta=cfg.beta, rate=fr_quadratic_proxy, k_dim=2,
                  eps=Rng(5).normal((rows, 2)),
                  probes=draw_probes(Rng(6), 2, rows, 2))
    got = geoib_loss_and_grads(enc, dec, x, y, **kwargs)

    def own_pass(net, log_var, probes, upstream, weight):
        return jf_value_and_grad_replicated(net, x, log_var, probes, upstream,
                                            weight)

    monkeypatch.setattr(training, "jf_value_and_grad", own_pass)
    want = geoib_loss_and_grads(enc, dec, x, y, **kwargs)
    assert np.array_equal(_bits(astuple(got[0])), _bits(astuple(want[0])))
    assert got[0].jf > 0.0
    for g, w in zip(got[1:], want[1:]):
        assert np.array_equal(_bits(g), _bits(w))

    def unfused_pass(net, log_var, probes, upstream, weight):
        return jf_value_and_grad_replicated(net, x, log_var, probes, upstream,
                                            weight, fused=False)

    monkeypatch.setattr(training, "jf_value_and_grad", unfused_pass)
    unfused = geoib_loss_and_grads(enc, dec, x, y, **kwargs)
    assert np.array_equal(_bits(astuple(got[0])), _bits(astuple(unfused[0])))
    assert np.array_equal(_bits(got[2]), _bits(unfused[2]))
    assert np.max(np.abs(got[1] - unfused[1])) <= 1e-13 * np.max(np.abs(unfused[1]))


@pytest.mark.parametrize("with_probes", [True, False])
def test_one_encoder_reverse_pass_per_objective(monkeypatch, with_probes):
    # with probes the encoder's loss gradient comes out of the penalty's
    # adjoint, so `Network.backward` runs on the decoder alone; without
    # them the encoder's backward pass forms it
    cfg = TrainConfig(k_dim=2, enc_hidden="8", dataset=TOY)
    _, _, enc, dec, _, _, x, y = _toy_setup(cfg)
    probes = draw_probes(Rng(4), 2, 16, 2) if with_probes else None
    backward, calls = Network.backward, []

    def counted(net, *args, **kwargs):
        calls.append(net)
        return backward(net, *args, **kwargs)

    monkeypatch.setattr(Network, "backward", counted)
    geoib_loss_and_grads(enc, dec, x[:16], y[:16], beta=cfg.beta,
                         rate=fr_quadratic_proxy, k_dim=2,
                         eps=Rng(3).normal((16, 2)), probes=probes)
    assert calls == ([dec] if with_probes else [dec, enc])


def test_a_stale_capture_is_never_read_without_grads():
    # after a captured call the parameters move; the value-only loss on the
    # same x object must give what a fresh copy of the nets gives
    cfg = TrainConfig(k_dim=2, enc_hidden="8", dataset=TOY)
    _, _, enc, dec, _, _, x, y = _toy_setup(cfg)
    x, y = x[:16], y[:16]
    kwargs = dict(beta=cfg.beta, rate=fr_quadratic_proxy, k_dim=2,
                  eps=Rng(7).normal((16, 2)), probes=draw_probes(Rng(8), 2, 16, 2))
    geoib_loss_and_grads(enc, dec, x, y, **kwargs)
    enc.params *= 1.25
    dec.params -= 0.125
    fresh_enc, fresh_dec = enc.copy(), dec.copy()
    got = geoib_loss_and_grads(enc, dec, x, y, want_grads=False, **kwargs)
    want = geoib_loss_and_grads(fresh_enc, fresh_dec, x, y, want_grads=False,
                                **kwargs)
    assert np.array_equal(_bits(astuple(got)), _bits(astuple(want)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loss_and_grads_match_central_differences_of_the_reported_total(seed):
    # the gradients are those of the total reported, the penalty's noise
    # taken from the log-variances; on the first log-variance unit, row 0's
    # raw value lies below LOG_VAR_MIN, where the clamp passes no gradient
    rng = Rng(seed, stream=8)
    k_dim, batch = 2, 5
    enc = Network([LayerSpec(3, 4, "tanh"), LayerSpec(4, 2 * k_dim, "identity")],
                  rng)
    dec = Network([LayerSpec(k_dim, 4, "softplus"), LayerSpec(4, 3, "identity")],
                  rng)
    x = rng.normal((batch, 3))
    y = rng.integers(0, 3, batch)
    hidden = np.tanh(x @ enc.blocks[0][:, :-1].T + enc.blocks[0][:, -1])
    raw = np.array([LOG_VAR_MIN - 8.0, 0.5, -1.0, 1.0, -0.5])
    enc.blocks[1][k_dim] = np.linalg.solve(np.c_[hidden, np.ones(batch)], raw)
    _, lv, clamp_open = posterior_head(enc.forward(x), k_dim)
    assert not clamp_open[0, 0] and clamp_open[1:].all() and clamp_open[:, 1].all()
    kwargs = dict(beta=0.5, rate=fr_quadratic_proxy, k_dim=k_dim,
                  eps=rng.normal((batch, k_dim)),
                  probes=draw_probes(rng, 2, batch, 3))
    m, g_enc, g_dec, _ = geoib_loss_and_grads(enc, dec, x, y, **kwargs)
    n_enc = enc.n_params

    def total(flat):
        e2, d2 = enc.copy(), dec.copy()
        e2.set_params(flat[:n_enc])
        d2.set_params(flat[n_enc:])
        return geoib_loss_and_grads(e2, d2, x, y, want_grads=False, **kwargs).total

    params = np.concatenate([enc.get_params(), dec.get_params()])
    assert total(params) == m.total
    fd = central_difference(total, params)
    analytic = np.concatenate([g_enc, g_dec])
    assert np.max(np.abs(analytic - fd)) <= 1e-6 * np.max(np.abs(fd))


# ------------------------------------------------------------------ steps


@pytest.mark.parametrize("method", ["geoib", "vib"])
def test_step_frozen_when_lr_zero(method):
    cfg = TrainConfig(method=method, eta_phi=0.0, eta_theta=0.0, k_dim=2,
                      enc_hidden="8", dataset=TOY)
    _, _, enc, dec, ke, kd, x, y = _toy_setup(cfg)
    if method == "vib":
        ke = kd = None
    p_e, p_d = enc.get_params().copy(), dec.get_params().copy()
    m = train_step(cfg, enc, dec, ke, kd, x[:32], y[:32], Rng(5))
    np.testing.assert_array_equal(enc.get_params(), p_e)
    np.testing.assert_array_equal(dec.get_params(), p_d)
    assert np.isfinite(m.total) and m.grad_norm_enc > 0.0
    if method == "geoib":
        # a zero direction would leave residual 1 for this nonzero gradient
        assert m.solve_residual_enc <= 1e-10 and m.jf > 0.0
    else:
        assert m.solve_residual_enc == 0.0 and m.jf == 0.0


def test_gib_step_learns_separable_toy():
    cfg = TrainConfig(beta=1e-4, k_dim=2, enc_hidden="8", batch=32,
                      dataset=TOY)
    _, root, enc, dec, ke, kd, x, y = _toy_setup(cfg)
    n = x.shape[0]
    for step in range(500):
        rng = root.substream(1_000_000 + step)
        idx = rng.permutation(n)[: cfg.batch]
        gib_step(cfg, enc, dec, ke, kd, x[idx], y[idx], rng)
    acc = classification_accuracy(dec, posterior_means(enc, x, 2), y)
    assert acc >= 0.98


def test_vib_matches_gib_at_beta_zero_on_toy():
    accs = {}
    for method in ("geoib", "vib"):
        cfg = TrainConfig(method=method, beta=0.0, k_dim=2, enc_hidden="8",
                          batch=32, dataset=TOY)
        _, root, enc, dec, ke, kd, x, y = _toy_setup(cfg)
        if method == "vib":
            ke = kd = None
        n = x.shape[0]
        for step in range(500):
            rng = root.substream(1_000_000 + step)
            idx = rng.permutation(n)[: cfg.batch]
            train_step(cfg, enc, dec, ke, kd, x[idx], y[idx], rng)
        accs[method] = classification_accuracy(
            dec, posterior_means(enc, x, 2), y)
    assert abs(accs["geoib"] - accs["vib"]) <= 0.01


def test_huge_damping_gives_plain_gradient_direction():
    # lambda -> inf: the preconditioner approaches a multiple of the identity
    cfg = TrainConfig(damping=1e6, step_clip=0.0, k_dim=2, enc_hidden="8",
                      dataset=TOY, batch=64)
    _, _, enc, dec, ke, kd, x, y = _toy_setup(cfg)
    x, y = x[:64], y[:64]
    rng = Rng(99)
    eps = rng.normal((64, 2))
    probes = draw_probes(rng, cfg.jf_probes, 64, 2)
    _, g_enc, g_dec, _ = geoib_loss_and_grads(
        enc.copy(), dec.copy(), x, y, beta=cfg.beta, rate=fr_quadratic_proxy,
        k_dim=2, eps=eps, probes=probes)
    p_e, p_d = enc.get_params().copy(), dec.get_params().copy()
    gib_step(cfg, enc, dec, ke, kd, x, y, Rng(99))
    for delta, g in ((p_e - enc.get_params(), g_enc),
                     (p_d - dec.get_params(), g_dec)):
        cos = float(delta @ g / (np.linalg.norm(delta) * np.linalg.norm(g)))
        assert cos > 0.999


def test_gib_step_rejects_non_finite_loss():
    cfg = TrainConfig(k_dim=2, enc_hidden="8", dataset=TOY)
    _, _, enc, dec, ke, kd, x, y = _toy_setup(cfg)
    enc.set_params(np.full(enc.n_params, np.inf))
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError, match="non-finite"):
            gib_step(cfg, enc, dec, ke, kd, x[:8], y[:8], Rng(7))


def test_sampled_fisher_stats_step_is_deterministic():
    results = []
    for _ in range(2):
        cfg = TrainConfig(k_dim=2, enc_hidden="8", dataset=TOY)
        _, _, enc, dec, ke, kd, x, y = _toy_setup(cfg)
        gib_step(cfg, enc, dec, ke, kd, x[:32], y[:32], Rng(8))
        results.append(enc.get_params())
    np.testing.assert_array_equal(results[0], results[1])


def test_vib_natural_gradient_ablation_uses_solver():
    cfg = TrainConfig(method="vib", vib_natural_gradient=True, k_dim=2,
                      enc_hidden="8", dataset=TOY)
    _, _, enc, dec, ke, kd, x, y = _toy_setup(cfg)
    p_e = enc.get_params().copy()
    m = train_step(cfg, enc, dec, ke, kd, x[:32], y[:32], Rng(9))
    assert m.solve_residual_enc <= 1e-10
    assert not np.array_equal(enc.get_params(), p_e)


@pytest.mark.parametrize("method", ["geoib", "vib"])
def test_sampled_capture_matches_the_two_forward_oracle(monkeypatch, method):
    # the K-FAC capture reuses the loss's forward passes; the factors and
    # parameters after one step must be the bits that running both nets
    # forward again gives
    def one_step():
        cfg = TrainConfig(method=method, vib_natural_gradient=True, k_dim=2,
                          enc_hidden="8", dataset=TOY)
        _, _, enc, dec, ke, kd, x, y = _toy_setup(cfg)
        train_step(cfg, enc, dec, ke, kd, x[:32], y[:32], Rng(11))
        return (*ke.a_factors, *ke.g_factors, *kd.a_factors, *kd.g_factors,
                enc.params, dec.params)

    reused = one_step()
    seen = {}
    real_loss = training.geoib_loss_and_grads

    def loss(enc, dec, x, y, **kwargs):
        seen.update(x=x, eps=kwargs["eps"])
        return real_loss(enc, dec, x, y, **kwargs)

    def two_forward(enc, dec, sig, clamp_open, step_rng):
        sampled_capture_two_forward(enc, dec, seen["x"], seen["eps"],
                                    sig.shape[1], step_rng)

    monkeypatch.setattr(training, "geoib_loss_and_grads", loss)
    monkeypatch.setattr(training, "_sampled_capture", two_forward)
    oracle = one_step()
    assert len(reused) == len(oracle)
    for got, want in zip(reused, oracle):
        assert np.array_equal(got, want)


def test_vib_natural_gradient_step_equals_geoib_step_at_beta_zero():
    # at beta = 0 only the preconditioner is left to tell the two apart,
    # and the ablation refreshes its factors exactly as geoib does
    params = {}
    for method in ("geoib", "vib"):
        cfg = TrainConfig(method=method, vib_natural_gradient=True, beta=0.0,
                          k_dim=2, enc_hidden="8", dataset=TOY)
        _, _, enc, dec, ke, kd, x, y = _toy_setup(cfg)
        train_step(cfg, enc, dec, ke, kd, x[:32], y[:32], Rng(10))
        params[method] = (enc.get_params(), dec.get_params())
    for a, b in zip(params["geoib"], params["vib"]):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("method,natural", [("geoib", False), ("vib", False),
                                            ("vib", True)])
def test_run_training_takes_geoib_steps_through_gib_step(monkeypatch, method,
                                                         natural):
    # a hook on the module-level `gib_step` must see every geoib step and
    # never a vib one, preconditioned or not
    calls = []
    real = training.gib_step

    def counting(*args, **kwargs):
        calls.append(args[0].method)
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "gib_step", counting)
    cfg = TrainConfig(method=method, vib_natural_gradient=natural, epochs=2,
                      k_dim=2, enc_hidden="8", dataset=TOY)
    run_training(cfg, evaluate=False)
    assert calls == (["geoib"] * 2 * 4 if method == "geoib" else [])


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the fault budget was measured on glibc's allocator")
def test_steady_geoib_steps_do_not_fault_the_heap_in_again(monkeypatch):
    # once the first epoch has grown the heap, steps reuse its pages: under
    # one minor fault a step on this config, where an allocator handing a
    # step's temporaries back to the kernel cost about 160
    faults = []
    real = training.gib_step

    def counting(*args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        m = real(*args, **kwargs)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return m

    monkeypatch.setattr(training, "gib_step", counting)
    run_training(TrainConfig(epochs=3, dataset="gauss_mixture:n=1000,noise=0.14"),
                 evaluate=False)
    steady = faults[len(faults) // 3 :]  # after the first of three epochs
    assert sum(steady) / len(steady) <= 20, faults


def test_every_training_solve_is_exact_and_nonzero(monkeypatch):
    # a solve must never leave a residual, nor turn a nonzero gradient into
    # an all-zero direction (which would skip that network's update)
    solves = []
    orig = training.natural_gradient

    def recording(state, grad, *args, **kwargs):
        step = orig(state, grad, *args, **kwargs)
        applied = fisher_vector_product(state, step.direction)
        true_res = np.linalg.norm(applied - grad) / np.linalg.norm(grad)
        solves.append((true_res, step, np.any(grad)))
        return step

    monkeypatch.setattr(training, "natural_gradient", recording)
    cfg = TrainConfig(dataset="gauss_mixture:n=600,noise=0.14", epochs=3,
                      k_dim=4, enc_hidden="8")
    res = run_training(cfg, evaluate=False)
    assert len(solves) == 2 * 3 * 4  # enc + dec, 3 epochs of 4 steps
    for true_res, step, grad_nonzero in solves:
        assert true_res <= 1e-10 and step.residual <= 1e-10
        assert abs(step.residual - true_res) <= 1e-12
        assert grad_nonzero and np.any(step.direction)
    for rec in res.history:
        assert rec["solve_residual_enc"] <= 1e-10
        assert rec["solve_residual_dec"] <= 1e-10


# ---------------------------------------------- batch-space input layer

# 784 features and 128-row batches: the batch cannot span the encoder's
# 785-wide bias-augmented input, so its layer 0 is solved in batch space
WIDE = "gauss_mixture:n=600,noise=0.14,dim=784"


def _step_setup(cfg):
    ds = make_dataset(cfg.dataset, 0)
    enc, dec = build_nets(cfg, ds.n_features, ds.n_classes, Rng(cfg.seed))
    ke = kfac_init(enc, cfg.damping, cfg.kfac_decay, cfg.batch)
    kd = kfac_init(dec, cfg.damping, cfg.kfac_decay, cfg.batch)
    x, y = ds.split("train")
    return enc, dec, ke, kd, x, y


def test_a_first_wide_step_adopts_the_batch_factor():
    cfg = TrainConfig(dataset=WIDE, k_dim=4, kfac_decay=0.95)
    enc, dec, ke, kd, x, y = _step_setup(cfg)
    assert ke.batch_space and not kd.batch_space
    train_step(cfg, enc, dec, ke, kd, x[:64], y[:64], Rng(3))
    aug = np.concatenate([x[:64], np.ones((64, 1))], axis=1)
    assert np.array_equal(ke.a_factors[0].view(np.uint64),
                          (aug.T @ aug / 64).view(np.uint64))


_THREAD_COUNT_RUN = f"""
import hashlib
from geoib.config import TrainConfig
from geoib.training import run_training
res = run_training(TrainConfig(epochs=1, dataset={WIDE!r}), evaluate=False)
print(hashlib.sha256(res.enc.params.tobytes() + res.dec.params.tobytes()).hexdigest())
"""


def _at_one_and_two_blas_threads(code):
    """What `code` prints in subprocesses at OPENBLAS_NUM_THREADS=1 and =2."""
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.path.join(os.path.dirname(os.path.dirname(
                       os.path.abspath(__file__))), "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.strip())
    return out


def test_run_training_bits_do_not_depend_on_the_blas_thread_count():
    # products over 785-wide batches give other bits at two BLAS threads
    # than at one unless the run pins one
    one, two = _at_one_and_two_blas_threads(_THREAD_COUNT_RUN)
    assert one == two


_THREAD_COUNT_EVAL = f"""
from geoib.config import TrainConfig
from geoib.data import make_dataset
from geoib.rng import Rng
from geoib.training import build_nets, evaluate_run
cfg = TrainConfig(dataset={WIDE!r}, k_dim=32)
ds = make_dataset(cfg.dataset, cfg.seed)
enc, dec = build_nets(cfg, ds.n_features, ds.n_classes, Rng(cfg.seed))
point = evaluate_run(cfg, enc, dec, ds, 0.0)
print(repr((point.accuracy, point.mi_xz_nats, point.inversion_mse)))
"""


def test_evaluate_run_bits_do_not_depend_on_the_blas_thread_count():
    # evaluation outside run_training (geoib eval) must pin BLAS itself: the
    # inversion probe's products on 784-wide inputs give another MSE at two
    # BLAS threads than at one
    one, two = _at_one_and_two_blas_threads(_THREAD_COUNT_EVAL)
    assert one == two


def _wide_run_cfg(**overrides):
    # 420 training rows: three batches of 128 and a last one of 36
    return TrainConfig(dataset=WIDE, k_dim=4, **overrides)


def _recorded_states(monkeypatch):
    """The KfacStates run_training builds, encoder first."""
    states = []
    real = training.kfac_init

    def recording(*args, **kwargs):
        states.append(real(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(training, "kfac_init", recording)
    return states


def test_every_wide_training_solve_is_exact_and_nonzero(monkeypatch):
    # the batch-space solve, judged by the materialized factor it stands
    # for, over epochs that each end on a short batch
    states = _recorded_states(monkeypatch)
    solves = []
    orig = training.natural_gradient

    def recording(state, grad, *args, **kwargs):
        step = orig(state, grad, *args, **kwargs)
        applied = fisher_vector_product(state, step.direction)
        true_res = np.linalg.norm(applied - grad) / np.linalg.norm(grad)
        solves.append((true_res, step, np.any(grad)))
        return step

    monkeypatch.setattr(training, "natural_gradient", recording)
    res = run_training(_wide_run_cfg(epochs=3, enc_hidden="8"), evaluate=False)
    assert states[0].batch_space and not states[1].batch_space
    assert len(solves) == 2 * 3 * 4  # enc + dec, 3 epochs of 4 steps
    for true_res, step, grad_nonzero in solves:
        assert true_res <= 1e-10 and step.residual <= 1e-10
        assert abs(step.residual - true_res) <= 1e-12
        assert grad_nonzero and np.any(step.direction)
    for rec in res.history:
        assert rec["solve_residual_enc"] <= 1e-10
        assert rec["solve_residual_dec"] <= 1e-10


def test_a_wide_run_forms_the_input_factor_only_when_read(monkeypatch):
    # reading a_factors after every solve forms layer 0's A and changes no
    # bit of the run; a run that never reads it never forms it, and no
    # run starts a thread
    cfg = _wide_run_cfg(epochs=2)
    threads = threading.active_count()
    seen = []

    def run(read):
        states = _recorded_states(monkeypatch)
        orig_solve, orig_step = training.natural_gradient, training.gib_step

        def solve(state, grad):
            step = orig_solve(state, grad)
            if read:
                assert state.a_factors[0] is not None
            return step

        def step(*args, **kwargs):
            m = orig_step(*args, **kwargs)
            seen.append((states[0]._a_factors[0] is not None,
                         threading.active_count() - threads))
            return m

        monkeypatch.setattr(training, "natural_gradient", solve)
        monkeypatch.setattr(training, "gib_step", step)
        res = run_training(cfg, evaluate=False)
        monkeypatch.undo()
        return [_bits(v) for v in (res.enc.params, res.dec.params)]

    got = run(read=True)
    assert seen == [(True, 0)] * 8
    seen.clear()
    want = run(read=False)
    assert seen == [(False, 0)] * 8
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_the_factors_are_let_go_before_evaluation(monkeypatch):
    # neither KfacState, nor the factors and rows it holds, may live on
    # into evaluation
    refs, alive = [], []
    real_init = training.kfac_init

    def recording(*args, **kwargs):
        state = real_init(*args, **kwargs)
        refs.append(weakref.ref(state))
        return state

    def evaluating(*args):
        alive.extend(ref() is not None for ref in refs)

    monkeypatch.setattr(training, "kfac_init", recording)
    monkeypatch.setattr(training, "evaluate_run", evaluating)
    run_training(_wide_run_cfg(epochs=1))
    assert alive == [False, False]


def _params_after_steps(monkeypatch, cfg, n_steps):
    """(encoder, decoder) parameters of a clean run after n_steps steps."""
    snaps = []
    real_step = training.gib_step

    def step(cfg, enc, dec, *args, **kwargs):
        if not snaps:
            snaps.append((enc.get_params(), dec.get_params()))
        m = real_step(cfg, enc, dec, *args, **kwargs)
        snaps.append((enc.get_params(), dec.get_params()))
        return m

    with monkeypatch.context() as m:
        m.setattr(training, "gib_step", step)
        run_training(cfg, evaluate=False)
    return snaps[n_steps]


@pytest.mark.parametrize("step,epoch,last_good_after",
                         [(2, 0, 0), (8, 2, 8)],
                         ids=["mid_epoch", "first_batch_of_an_epoch"])
def test_divergence_is_blamed_on_the_step_whose_batch_holds_it(
        monkeypatch, tmp_path, step, epoch, last_good_after):
    # the steps before the NaN batch's complete, and its own step raises
    cfg = _wide_run_cfg(epochs=3)
    want_enc, want_dec = _params_after_steps(monkeypatch, cfg, last_good_after)
    real_step = training.gib_step
    begun = []

    def planting(*args, **kwargs):
        if len(begun) == step:
            args[5][0, 7] = np.nan  # the run slices its own copy of the batch
        begun.append(None)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(training, "gib_step", planting)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDiverged,
                           match=rf"^step {step} \(epoch {epoch}\): objective "
                                 "went non-finite"):
            run_training(cfg, out_dir=str(tmp_path), evaluate=False)
    assert len(begun) == step + 1
    enc = Network.load(str(tmp_path / "encoder.last_good.net"))
    dec = Network.load(str(tmp_path / "decoder.last_good.net"))
    assert np.array_equal(enc.get_params().view(np.uint64), want_enc.view(np.uint64))
    assert np.array_equal(dec.get_params().view(np.uint64), want_dec.view(np.uint64))


# ------------------------------------------------------------- full runs


def test_beta_zero_run_masters_separated_mixture():
    # means six noise-sigmas apart: near-Bayes accuracy is reachable
    cfg = TrainConfig(beta=0.0, dataset="gauss_mixture:n=2000,noise=0.14",
                      epochs=20)
    res = run_training(cfg, evaluate=True)
    assert res.point.accuracy >= 0.99


def test_run_training_deterministic():
    cfg = TrainConfig(dataset="gauss_mixture:n=300,noise=0.14", epochs=2,
                      k_dim=4, enc_hidden="8")
    a = run_training(cfg)
    b = run_training(cfg)
    np.testing.assert_array_equal(a.enc.get_params(), b.enc.get_params())
    np.testing.assert_array_equal(a.dec.get_params(), b.dec.get_params())
    assert a.history == b.history
    pa, pb = asdict(a.point), asdict(b.point)
    pa.pop("wall_clock_s")
    pb.pop("wall_clock_s")
    assert pa == pb


def test_run_training_writes_round_trippable_outputs(tmp_path):
    out = tmp_path / "run"
    cfg = TrainConfig(dataset="gauss_mixture:n=300,noise=0.14", epochs=2,
                      k_dim=4, enc_hidden="8")
    res = run_training(cfg, out_dir=str(out))
    from geoib.config import load_config

    assert load_config(out / "config.resolved") == cfg
    enc = Network.load(out / "encoder.net")
    np.testing.assert_array_equal(enc.get_params(), res.enc.get_params())
    with open(out / "metrics.jsonl") as fh:
        records = [json.loads(line) for line in fh]
    assert [r["epoch"] for r in records] == [0, 1]
    assert all(np.isfinite(r["total"]) for r in records)
    assert _csv_rows(out / "point.csv") == [list(CSV_COLUMNS),
                                            point_row(res.point)]
    (jsonl_pt,) = read_points_jsonl(out / "point.jsonl")
    assert jsonl_pt == res.point


def test_divergence_saves_last_good_checkpoint(tmp_path):
    cfg = TrainConfig(method="vib", eta_phi=1e200, eta_theta=1e200,
                      step_clip=0.0, epochs=1, k_dim=4, enc_hidden="8",
                      dataset="gauss_mixture:n=300,noise=0.14")
    out = tmp_path / "diverged"
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDiverged, match="step") as info:
            run_training(cfg, out_dir=str(out))
    assert info.value.checkpoint_dir == str(out)
    saved = Network.load(out / "encoder.last_good.net")
    # nothing survived epoch 0, so last-good is the initialization
    ds = gauss_mixture(300, 0.14, seed=cfg.seed)
    enc0, _ = build_nets(cfg, ds.n_features, ds.n_classes, Rng(cfg.seed))
    np.testing.assert_array_equal(saved.get_params(), enc0.get_params())


def test_evaluate_run_passes_wall_clock_through():
    cfg = TrainConfig(dataset="gauss_mixture:n=300,noise=0.14", epochs=1,
                      k_dim=4, enc_hidden="8")
    res = run_training(cfg, evaluate=False)
    assert res.point is None
    point = evaluate_run(cfg, res.enc, res.dec, res.dataset, wall_clock_s=3.25)
    assert point.wall_clock_s == 3.25
    assert 0.0 <= point.accuracy <= 1.0
    assert point.beta == cfg.beta and point.k_dim == cfg.k_dim


def _three_pass_point(cfg, enc, dec, ds, wall_clock_s) -> InfoPlanePoint:
    """evaluate_run with one encoder pass each over the test split, the
    train split and the KSG rows."""
    x_te, y_te = ds.split("test")
    mu_te = enc.forward(x_te)[:, :cfg.k_dim]
    x_tr, _ = ds.split("train")
    mu_tr = enc.forward(x_tr)[:, :cfg.k_dim]
    joint_dim = ds.n_features + cfg.k_dim
    cap = (training._MI_CAP_LOW_DIM if joint_dim <= training._MI_DIM_SWITCH
           else training._MI_CAP_HIGH_DIM)
    n = ds.features.shape[0]
    if n > cap:
        sel = np.sort(Rng(cfg.seed, stream=training._STREAM_EVAL).permutation(n)[:cap])
    else:
        sel = np.arange(n)
    x_mi = ds.features[sel]
    mu_mi, lv_mi, _ = posterior_head(enc.forward(x_mi), cfg.k_dim)
    mi = mi_knn(training._standardized(x_mi),
                training._noise_relative_view(mu_mi, lv_mi))
    return InfoPlanePoint(
        beta=cfg.beta, k_dim=cfg.k_dim,
        accuracy=classification_accuracy(dec, mu_te, y_te), mi_xz_nats=mi,
        inversion_mse=inversion_probe(mu_tr, x_tr, mu_te, x_te, seed=cfg.seed),
        seed=cfg.seed, wall_clock_s=wall_clock_s, probe=PROBE_NAME,
        revision=REVISION)


@pytest.mark.parametrize("cap", [None, 150])
def test_evaluate_run_scores_from_one_encoder_pass(monkeypatch, cap):
    # every row (600, under the cap) or 150 of them reach KSG; either way
    # one encoder pass gives every field the bits of a pass per row set
    cfg = TrainConfig(dataset=TOY, k_dim=2, enc_hidden="8", epochs=2)
    res = run_training(cfg, evaluate=False)
    if cap is not None:
        monkeypatch.setattr(training, "_MI_CAP_LOW_DIM", cap)
    want = _three_pass_point(cfg, res.enc, res.dec, res.dataset, 1.5)
    passes = _primal_passes(monkeypatch)
    got = evaluate_run(cfg, res.enc, res.dec, res.dataset, wall_clock_s=1.5)
    assert passes == [res.enc, res.dec]
    assert repr(astuple(got)) == repr(astuple(want))


def test_evaluate_run_subsamples_ksg_rows_to_the_cap(monkeypatch):
    # with more rows than the cap, KSG reads `cap` distinct rows drawn
    # from the eval stream, the same ones on every evaluation
    cfg = TrainConfig(dataset=TOY, k_dim=2, enc_hidden="4")
    ds = gauss_mixture(600, 0.1, seed=0, classes=2, dim=2)
    enc, dec = build_nets(cfg, ds.n_features, ds.n_classes, Rng(cfg.seed))
    cap = 150
    monkeypatch.setattr(training, "_MI_CAP_LOW_DIM", cap)
    real_knn = training.mi_knn
    seen = []

    def recording(x, z, *args, **kwargs):
        seen.append((x, z))
        return real_knn(x, z, *args, **kwargs)

    monkeypatch.setattr(training, "mi_knn", recording)
    points = [evaluate_run(cfg, enc, dec, ds, wall_clock_s=0.0) for _ in range(2)]
    (x1, z1), (x2, z2) = seen
    assert x1.shape == (cap, 2) and z1.shape == (cap, 2)
    assert np.unique(x1, axis=0).shape[0] == cap
    sel = np.sort(Rng(cfg.seed, stream=training._STREAM_EVAL).permutation(600)[:cap])
    np.testing.assert_array_equal(x1, training._standardized(ds.features[sel]))
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(z1, z2)
    assert points[0] == points[1]


# The traced peak of evaluate_run above its baseline, over the features'
# bytes, on a 500-row rendered digit corpus with KSG on two threads: 4.08
# when the probe's split copies were held across KSG and KSG read a
# gathered copy of every row, 1.93 with both gone (the benchmark's
# 1200-row corpus read 4.06 and 1.49).
_EVAL_PEAK_OVER_FEATURES = 3.0


def test_evaluate_run_allocates_little_beyond_the_features(tmp_path,
                                                           monkeypatch):
    write_digit_corpus(tmp_path, n_train=400, n_test=100, seed=0)
    cfg = TrainConfig(dataset=f"idx:path={tmp_path}", k_dim=32)
    ds = make_dataset(cfg.dataset, cfg.seed)
    enc, dec = build_nets(cfg, ds.n_features, ds.n_classes, Rng(cfg.seed))
    # each KSG thread holds its own distance blocks
    monkeypatch.setattr(mi, "_usable_cpus", lambda: 2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        evaluate_run(cfg, enc, dec, ds, wall_clock_s=0.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    ratio = peak / ds.features.nbytes
    assert ratio <= _EVAL_PEAK_OVER_FEATURES, (
        f"evaluate_run peaked {ratio:.2f}x the features")


def test_run_training_holds_no_copy_of_a_whole_split(monkeypatch):
    # every batch is gathered from the dataset's one feature array: while
    # run_training steps, none of its locals but the split's indices holds
    # as many rows as the training split
    cfg = TrainConfig(dataset=TOY, k_dim=2, enc_hidden="8", epochs=1)
    real_step, held = training.gib_step, set()

    def inspecting(*args):
        local = inspect.currentframe().f_back.f_locals
        n_train = local["ds"].train_idx.size
        held.update(name for name, v in local.items()
                    if isinstance(v, np.ndarray) and v.ndim
                    and v.shape[0] >= n_train and v is not local["ds"].train_idx)
        return real_step(*args)

    monkeypatch.setattr(training, "gib_step", inspecting)
    res = run_training(cfg, evaluate=False)
    assert len(res.history) == 1
    assert held == set()


# ----------------------------------------------------------------- sweeps


_SWEEP_CFG = TrainConfig(dataset="gauss_mixture:n=200,noise=0.14", epochs=2,
                         k_dim=2, enc_hidden="8")


def test_run_sweep_single_cell(tmp_path):
    out = tmp_path / "sweep"
    points = run_sweep(_SWEEP_CFG, str(out), betas=(1e-4,), k_dims=(2,),
                       seeds=(0,))
    assert len(points) == 1
    assert points[0].beta == 1e-4 and points[0].k_dim == 2
    assert (out / "beta0.0001_k2_seed0" / "config.resolved").exists()
    assert _csv_rows(out / "info_plane.csv") == [list(CSV_COLUMNS),
                                                 point_row(points[0])]
    assert len(read_points_jsonl(out / "points.jsonl")) == 1


@pytest.mark.parametrize("axis", ["betas", "k_dims", "seeds"])
def test_run_sweep_refuses_an_empty_grid(tmp_path, axis):
    out = tmp_path / "sweep"
    grid = {"betas": (1e-4,), "k_dims": (2,), "seeds": (0,), axis: ()}
    with pytest.raises(ValueError, match=f"no {axis} given"):
        run_sweep(_SWEEP_CFG, str(out), **grid)
    assert not out.exists()


@pytest.mark.parametrize("axis, values", [("betas", (1e-4, 0.0001)),
                                          ("k_dims", (2, 2)), ("seeds", (0, 0))])
def test_run_sweep_refuses_a_repeated_cell(tmp_path, axis, values):
    # one cell trained twice would append two manifest records and write
    # its row twice into info_plane.csv
    out = tmp_path / "sweep"
    grid = {"betas": (1e-4,), "k_dims": (2,), "seeds": (0,), axis: values}
    with pytest.raises(ValueError, match="cell beta0.0001_k2_seed0 twice"):
        run_sweep(_SWEEP_CFG, str(out), **grid)
    assert not out.exists()


def test_run_sweep_refuses_an_invalid_cell_before_touching_out_dir(tmp_path):
    out = tmp_path / "sweep"
    with pytest.raises(ValueError, match="beta must be nonnegative"):
        run_sweep(_SWEEP_CFG, str(out), betas=(1e-4, -1.0), k_dims=(2,))
    assert not out.exists()


def test_run_sweep_refuses_a_seed_outside_64_bits_before_touching_out_dir(
        tmp_path):
    # Rng takes a seed mod 2**64, so seeds -1 and 2**64 - 1 would name two
    # cells that train to the same bytes
    out = tmp_path / "sweep"
    with pytest.raises(ValueError, match="seed must lie in"):
        run_sweep(_SWEEP_CFG, str(out), betas=(1e-4,), k_dims=(2,),
                  seeds=(-1, 2**64 - 1))
    assert not out.exists()


def test_run_sweep_resumes_from_manifest(tmp_path):
    out = tmp_path / "sweep"
    first = run_sweep(_SWEEP_CFG, str(out), betas=(1e-4,), k_dims=(2,),
                      seeds=(0,))
    manifest = (out / "manifest.jsonl").read_text()
    assert len(manifest.splitlines()) == 1
    second = run_sweep(_SWEEP_CFG, str(out), betas=(1e-4,), k_dims=(2,),
                       seeds=(0,))
    assert (out / "manifest.jsonl").read_text() == manifest
    assert second == first


def test_run_sweep_records_failures_and_continues(tmp_path):
    bad = TrainConfig(method="vib", eta_phi=1e200, eta_theta=1e200,
                      step_clip=0.0, epochs=1, k_dim=2, enc_hidden="8",
                      dataset="gauss_mixture:n=200,noise=0.14")
    out = tmp_path / "sweep"
    with np.errstate(all="ignore"):
        points = run_sweep(bad, str(out), betas=(1e-4,), k_dims=(2,),
                           seeds=(0, 1))
    assert points == []
    with open(out / "manifest.jsonl") as fh:
        records = [json.loads(line) for line in fh]
    assert len(records) == 2
    assert all(r["status"] == "error" for r in records)
    assert all("TrainingDiverged" in r["error"] for r in records)
    # aggregate files still written, just empty of rows
    assert _csv_rows(out / "info_plane.csv") == [list(CSV_COLUMNS)]


def test_run_sweep_keeps_betas_apart_past_six_digits(tmp_path):
    # "%g" prints both as 1; each cell needs its own directory and point
    out = tmp_path / "sweep"
    betas = (1.0000001, 1.0000002)
    first = run_sweep(_SWEEP_CFG, str(out), betas=betas, k_dims=(2,))
    assert [p.beta for p in first] == list(betas)
    cells = sorted(d.name for d in out.iterdir() if d.is_dir())
    assert cells == ["beta1.0000001_k2_seed0", "beta1.0000002_k2_seed0"]
    for beta in betas:
        cell = out / f"beta{beta!r}_k2_seed0"
        assert read_points_jsonl(cell / "point.jsonl")[0].beta == beta
    again = run_sweep(_SWEEP_CFG, str(out), betas=betas, k_dims=(2,))
    assert again == first


def test_run_sweep_drops_a_partial_last_manifest_line(tmp_path):
    out = tmp_path / "sweep"
    first = run_sweep(_SWEEP_CFG, str(out), betas=(1e-4,), k_dims=(2,),
                      seeds=(0, 1))
    path = out / "manifest.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(lines[0] + lines[1][: len(lines[1]) // 2])  # killed mid-append
    with pytest.warns(UserWarning, match="partial last line"):
        second = run_sweep(_SWEEP_CFG, str(out), betas=(1e-4,), k_dims=(2,),
                           seeds=(0, 1))
    # seed 1 was trained again; only its wall clock may differ
    assert second[0] == first[0]
    assert second[1] == replace(first[1], wall_clock_s=second[1].wall_clock_s)
    repaired = path.read_text()
    assert repaired.startswith(lines[0])
    assert [json.loads(line)["cell"] for line in repaired.splitlines()] == \
        ["beta0.0001_k2_seed0", "beta0.0001_k2_seed1"]
    third = run_sweep(_SWEEP_CFG, str(out), betas=(1e-4,), k_dims=(2,),
                      seeds=(0, 1))
    assert third == second
    assert path.read_text() == repaired


def test_run_sweep_completes_a_last_manifest_line_without_newline(tmp_path):
    out = tmp_path / "sweep"
    first = run_sweep(_SWEEP_CFG, str(out), betas=(1e-4,), k_dims=(2,))
    path = out / "manifest.jsonl"
    path.write_text(path.read_text().rstrip("\n"))  # killed before the newline
    second = run_sweep(_SWEEP_CFG, str(out), betas=(1e-4,), k_dims=(2,),
                       seeds=(0, 1))
    assert second[0] == first[0]
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["cell"] for r in records] == \
        ["beta0.0001_k2_seed0", "beta0.0001_k2_seed1"]


def test_run_sweep_retries_cells_that_failed(tmp_path, monkeypatch):
    out = tmp_path / "sweep"
    real = training.run_training

    def broken(cfg, out_dir=None):
        raise RuntimeError("killed by the test")

    monkeypatch.setattr(training, "run_training", broken)
    assert run_sweep(_SWEEP_CFG, str(out), betas=(1e-4,), k_dims=(2,)) == []
    monkeypatch.setattr(training, "run_training", real)
    points = run_sweep(_SWEEP_CFG, str(out), betas=(1e-4,), k_dims=(2,))
    assert len(points) == 1 and points[0].beta == 1e-4
    records = [json.loads(line)
               for line in (out / "manifest.jsonl").read_text().splitlines()]
    assert [r["status"] for r in records] == ["error", "ok"]
    assert run_sweep(_SWEEP_CFG, str(out), betas=(1e-4,), k_dims=(2,)) == points
    assert len((out / "manifest.jsonl").read_text().splitlines()) == 2


def test_run_sweep_refuses_a_cell_trained_under_other_flags(tmp_path):
    out = tmp_path / "sweep"
    run_sweep(_SWEEP_CFG, str(out), betas=(1e-4,), k_dims=(2,))
    manifest = (out / "manifest.jsonl").read_text()
    longer = replace(_SWEEP_CFG, epochs=9)
    with pytest.raises(ValueError, match="epochs = 2, now 9"):
        run_sweep(longer, str(out), betas=(1e-4, 1e-3), k_dims=(2,))
    # refused before training anything
    assert (out / "manifest.jsonl").read_text() == manifest
    assert not (out / "beta0.001_k2_seed0").exists()


@pytest.mark.parametrize("recorded", [None, "r0"])
def test_run_sweep_refuses_a_cell_of_another_revision(tmp_path, recorded):
    out = tmp_path / "sweep"
    (point,) = run_sweep(_SWEEP_CFG, str(out), betas=(1e-4,), k_dims=(2,))
    assert point.revision == REVISION
    assert json.loads((out / "points.jsonl").read_text())["revision"] == REVISION
    cell = out / "beta0.0001_k2_seed0"
    assert json.loads((cell / "point.jsonl").read_text())["revision"] == REVISION
    # a sweep written before the revision was recorded names none
    rec = json.loads((out / "manifest.jsonl").read_text())
    assert rec["point"]["revision"] == REVISION
    rec["point"]["revision"] = recorded
    if recorded is None:
        del rec["point"]["revision"]
    (out / "manifest.jsonl").write_text(json.dumps(rec) + "\n")
    with pytest.raises(ValueError, match="revision.*sweep into a new directory"):
        run_sweep(_SWEEP_CFG, str(out), betas=(1e-4, 1e-3), k_dims=(2,))
    assert not (out / "beta0.001_k2_seed0").exists()


@pytest.mark.parametrize("recorded", [None, "mlp64_sgd200"])
def test_run_sweep_refuses_a_cell_scored_by_another_probe(tmp_path, recorded):
    out = tmp_path / "sweep"
    (point,) = run_sweep(_SWEEP_CFG, str(out), betas=(1e-4,), k_dims=(2,))
    assert point.probe == PROBE_NAME
    # a sweep written before the probe was recorded names none
    rec = json.loads((out / "manifest.jsonl").read_text())
    rec["point"]["probe"] = recorded
    if recorded is None:
        del rec["point"]["probe"]
    (out / "manifest.jsonl").write_text(json.dumps(rec) + "\n")
    with pytest.raises(ValueError, match="sweep into a new directory"):
        run_sweep(_SWEEP_CFG, str(out), betas=(1e-4, 1e-3), k_dims=(2,))
    assert not (out / "beta0.001_k2_seed0").exists()
