"""Training loops: geometry-aware bottleneck runs and the VIB baseline.

Both methods share one objective function and one step.  A geoib step
does, in order: (1) draw a minibatch and reparameterized codes
z = mu + sigma * eps, (2) estimate the Fisher-Rao quadratic rate and the
Jacobian capacity penalty with Hutchinson probes, (3) assemble the
Euclidean gradients of the objective reported, NLL + beta (FR + JF) (one
reverse pass over the encoder, the penalty's adjoint seeded with the
loss's output adjoint, forms the encoder's, through the noise scale
too), (4) refresh the Kronecker Fisher factors from the pre-activation
gradients of the model's own scores, (5) solve the damped factored
systems by an exact Kronecker-factored Cholesky solve, and (6) apply
additive parameter updates scaled by the two step sizes.  The VIB
baseline (Alemi et al. 2017) is NLL + beta KL, with no probes, and skips
(4) and (5): plain gradient descent, unless the vib_natural_gradient
ablation keeps the preconditioning steps exactly as geoib runs them.

Everything stochastic draws from substreams of the run seed keyed by step
index, so runs are reproducible sample-for-sample and a config uniquely
determines the final parameters.

Each network runs one primal pass a step: the loss's captured forward.
The Jacobian penalty's JVPs read it, and so do the gradient's reverse pass
and the K-FAC capture's, which draws nothing: it backpropagates the
decoder's exact output Fisher at the loss's softmax and the encoder's
score at the loss's own codes (`_fisher_capture`).  The loss without
gradients captures the encoder pass too, for the penalty's JVPs.

A network whose input is wider than the batch can span (`cfg.batch` <
in + 1, as on 784-pixel digits) takes its input layer's A factor per batch
and solves that layer's Fisher block in batch space
(`fisher.kfac_init(batch=)`): no step forms the layer's (in+1)-square
factor.

`run_training` pins numpy's and scipy's BLAS to one thread each
(`linalg.pin_blas_threads`), because the large products and factors give
other bits on more threads; `evaluate_run` pins them too, for evaluation
outside a run (`geoib eval`).
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass, asdict, fields, replace

import numpy as np

from .config import TrainConfig, load_config, save_config
from .data import DatasetHandle, make_dataset
from .encoder import fr_quadratic_proxy, kl_to_standard_normal, posterior_head
from .fisher import KfacState, kfac_init, kfac_update, natural_gradient
from .jf import draw_probes, jf_batch, jf_value_and_grad
from .linalg import pin_blas_threads
from .mi import (
    PROBE_NAME,
    InfoPlanePoint,
    classification_accuracy,
    inversion_probe,
    mi_knn,
    write_points_csv,
    write_points_jsonl,
)
from .nets import LayerSpec, Network
from .rng import Rng

# The training revision: what a given config trains to.  Every change in
# behaviour made on purpose bumps it (r8: a one-row batch's JVPs read the
# captured pass) and records the before and after in CHANGES.md; a change
# that keeps every bit keeps it.  Points record it; a sweep refuses another
# one's cells.
REVISION = "r8"

# Substream layout of the run seed.
_STREAM_ENC_INIT = 11
_STREAM_DEC_INIT = 12
_STREAM_EVAL = 31337
_STREAM_EPOCH = 100_000
_STREAM_STEP = 1_000_000

# KSG sample caps keep high-dimensional neighbor queries tractable.
_MI_CAP_LOW_DIM = 5000
_MI_CAP_HIGH_DIM = 2000
_MI_DIM_SWITCH = 64

class TrainingDiverged(RuntimeError):
    """Raised when a step goes non-finite; carries the last finite params."""

    def __init__(self, message: str, checkpoint_dir: str | None = None):
        super().__init__(message)
        self.checkpoint_dir = checkpoint_dir


def build_nets(cfg: TrainConfig, d_in: int, n_classes: int, root: Rng):
    """Encoder (tanh hidden, linear 2K head) and decoder (tanh hidden,
    linear logits), initialized from disjoint substreams of the run seed."""
    dims = [d_in] + cfg.hidden_dims("enc")
    enc_specs = [LayerSpec(a, b, "tanh") for a, b in zip(dims, dims[1:])]
    enc_specs.append(LayerSpec(dims[-1], 2 * cfg.k_dim, "identity"))
    ddims = [cfg.k_dim] + cfg.hidden_dims("dec")
    dec_specs = [LayerSpec(a, b, "tanh") for a, b in zip(ddims, ddims[1:])]
    dec_specs.append(LayerSpec(ddims[-1], n_classes, "identity"))
    enc = Network(enc_specs, root.substream(_STREAM_ENC_INIT))
    dec = Network(dec_specs, root.substream(_STREAM_DEC_INIT))
    return enc, dec


def _nll_and_upstream(logits: np.ndarray, y: np.ndarray):
    """Per-sample softmax cross-entropy, its per-sample logit gradient and
    the softmax p itself."""
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    rows = np.arange(logits.shape[0])
    nll = lse - logits[rows, y]
    p = np.exp(logits - lse[:, None])
    upstream = p.copy()
    upstream[rows, y] -= 1.0
    return nll, upstream, p


@dataclass(frozen=True)
class StepMetrics:
    """Loss parts and solver diagnostics for one optimizer step.

    The solve residuals are the relative residuals
    ||(G + lam I) V (A + lam I) - g|| / ||g|| of the two natural-gradient
    solves (0 when no solve ran).
    """

    total: float
    nll: float
    fr: float
    jf: float
    grad_norm_enc: float = 0.0
    grad_norm_dec: float = 0.0
    solve_residual_enc: float = 0.0
    solve_residual_dec: float = 0.0


_METRIC_NAMES = tuple(f.name for f in fields(StepMetrics))


def geoib_loss_and_grads(enc: Network, dec: Network, x, y, *,
                         beta: float, rate, k_dim: int, eps: np.ndarray,
                         probes: np.ndarray | None,
                         want_grads: bool = True):
    """The objective NLL + beta (rate + JF) and, optionally, its exact
    gradients for both networks.

    geoib's objective takes `fr_quadratic_proxy` as its rate and probes;
    the VIB objective NLL + beta KL takes `kl_to_standard_normal` and
    `probes=None`, which leaves the Jacobian term out.  The Jacobian
    penalty's noise variances are exp of the clamped log-variances, and
    its gradient runs through them (`jf_value_and_grad`), so the gradients
    are those of the `total` reported.

    Args:
        rate: `(mu, log_var) -> (per-row rate, its log_var gradient)`, as
            `fr_quadratic_proxy` and `kl_to_standard_normal` are.
        eps: (B, k_dim) reparameterization draws, fixed for this call.
        probes: (S, B, d_in) Hutchinson probes, fixed for this call, or
            None for no Jacobian term.

    The encoder's forward pass is always captured, since the Jacobian
    penalty's JVPs read it (`jf_batch`, `jf_value_and_grad`); the decoder's
    is captured only for the gradients.  With probes, the encoder's whole
    gradient comes from the penalty's adjoint seeded with the loss's
    encoder upstream, and `Network.backward` runs on the decoder alone.

    Returns:
        metrics alone when want_grads is False, else
        (metrics, g_enc, g_dec, (p, sig, clamp_open)): the mean-over-batch
        flat parameter gradients, and the decoder's softmax p, the
        posterior head's standard deviations and its clamp mask, which
        `_fisher_capture` reuses.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    batch = x.shape[0]
    mu, lv, clamp_open = posterior_head(enc.forward(x, capture=True), k_dim)
    sig = np.exp(0.5 * lv)
    z = mu + sig * eps
    logits = dec.forward(z, capture=want_grads)
    nll_vec, up_dec, p = _nll_and_upstream(logits, y)
    nll = float(nll_vec.mean())

    fr_vec, dlv_fr = rate(mu, lv)
    fr = float(fr_vec.mean())

    if want_grads:
        g_dec, dz = dec.backward(up_dec, return_input_grad=True)
        up_enc = np.zeros((batch, 2 * k_dim))
        up_enc[:, :k_dim] = dz + beta * mu
        up_enc[:, k_dim:] = (dz * (0.5 * sig * eps) + beta * dlv_fr) * clamp_open
        if probes is None:
            g_enc = enc.backward(up_enc)
    jf = 0.0
    if probes is not None:
        # both read the encoder pass captured above; with gradients, one
        # reverse pass over the encoder serves the loss and the penalty
        if want_grads:
            jf_vec, g_enc = jf_value_and_grad(enc, lv, probes, upstream=up_enc,
                                              weight=beta)
        else:
            jf_vec, _ = jf_batch(enc, np.exp(lv), probes, head_dim=k_dim)
        jf = float(jf_vec.mean())

    total = nll + beta * (fr + jf)
    metrics = StepMetrics(total=total, nll=nll, fr=fr, jf=jf)
    if not want_grads:
        return metrics
    return metrics, g_enc / batch, g_dec / batch, (p, sig, clamp_open)


def _fisher_capture(enc: Network, dec: Network, eps: np.ndarray, p: np.ndarray,
                    sig: np.ndarray, clamp_open: np.ndarray) -> None:
    """Refresh the captured backward statistics with the model's own
    scores, drawing nothing.  Decoder: the C rows sqrt(C p_c) (e_c - p) per
    sample, whose outer products sum to C (diag(p) - p p^T), so
    `kfac_update`'s mean over the B*C rows is the batch mean of the exact
    output Fisher.  Encoder: the score [eps / sigma, (eps^2 - 1) / 2] of
    q(z|x) at the loss's z = mu + sigma * eps, whose expected outer product
    is the Gaussian Fisher diag(sigma^-2, 1/2).

    It backpropagates through the forward passes `geoib_loss_and_grads`
    captured, with that call's `eps` and returned `p`, `sig` and
    `clamp_open`, so it must follow that call on the same batch with the
    parameters unchanged.  It records only the pre-activation gradients
    (`Network.backward_deltas`), which `kfac_update` reads besides the
    captured inputs.
    """
    n_classes = p.shape[1]
    root_p = np.sqrt(n_classes * p)[:, :, None]
    dec.backward_deltas(root_p * (np.eye(n_classes) - p[:, None, :]))
    enc.backward_deltas(np.concatenate(
        [eps / sig, 0.5 * (eps**2 - 1.0) * clamp_open], axis=1))


def _clip_step(delta: np.ndarray, max_norm: float) -> np.ndarray:
    """Scale a parameter displacement down to max_norm (0 = no cap).

    Scaling preserves the direction, so directional properties of the step
    (descent, cosine with the gradient) survive clipping.
    """
    n = float(np.linalg.norm(delta))
    if max_norm > 0.0 and n > max_norm:
        return delta * (max_norm / n)
    return delta


def train_step(cfg: TrainConfig, enc: Network, dec: Network,
               kfac_enc: KfacState | None, kfac_dec: KfacState | None,
               x, y, step_rng: Rng) -> StepMetrics:
    """One optimizer step of either method; mutates nets and factors.

    geoib draws Hutchinson probes and optimizes NLL + beta (FR quadratic +
    JF); vib optimizes NLL + beta KL.
    Given K-FAC states, the factors are refreshed from the model's own
    scores at the step's batch and codes (`_fisher_capture`), and both
    gradients are preconditioned by the exact natural-gradient solve;
    without them the step is plain gradient descent.
    """
    x = np.asarray(x, dtype=np.float64)
    batch = x.shape[0]
    eps = step_rng.normal((batch, cfg.k_dim))
    if cfg.method == "geoib":
        probes = draw_probes(step_rng, cfg.jf_probes, batch, x.shape[1])
        rate = fr_quadratic_proxy
    else:
        probes, rate = None, kl_to_standard_normal
    metrics, g_enc, g_dec, head = geoib_loss_and_grads(
        enc, dec, x, y, beta=cfg.beta, rate=rate, k_dim=cfg.k_dim,
        eps=eps, probes=probes,
    )
    if not np.isfinite(metrics.total):
        raise FloatingPointError(f"objective went non-finite: {metrics.total!r}")
    dir_enc, dir_dec = g_enc, g_dec
    res_enc = res_dec = 0.0
    if kfac_enc is not None:
        _fisher_capture(enc, dec, eps, *head)
        kfac_update(kfac_enc, enc)
        kfac_update(kfac_dec, dec)
        step_enc = natural_gradient(kfac_enc, g_enc)
        step_dec = natural_gradient(kfac_dec, g_dec)
        dir_enc, dir_dec = step_enc.direction, step_dec.direction
        res_enc, res_dec = step_enc.residual, step_dec.residual
    enc.params -= _clip_step(cfg.eta_phi * dir_enc, cfg.step_clip)
    dec.params -= _clip_step(cfg.eta_theta * dir_dec, cfg.step_clip)
    return replace(metrics, grad_norm_enc=float(np.linalg.norm(g_enc)),
                   grad_norm_dec=float(np.linalg.norm(g_dec)),
                   solve_residual_enc=res_enc, solve_residual_dec=res_dec)


def _epoch_batches(root: Rng, n: int, cfg: TrainConfig,
                   epoch: int) -> list[np.ndarray]:
    """The row indices of each step of one epoch, in order.

    The epoch's order comes from its own substream of the run seed.
    """
    order = root.substream(_STREAM_EPOCH + epoch).permutation(n)
    return [order[start : start + cfg.batch] for start in range(0, n, cfg.batch)]


# `run_training` takes every geoib step, and only those, through this
# module-level name, so a hook set on it sees exactly the geoib steps.
gib_step = train_step


@dataclass
class RunResult:
    cfg: TrainConfig
    enc: Network
    dec: Network
    history: list
    point: InfoPlanePoint | None
    dataset: DatasetHandle
    out_dir: str | None


def run_training(cfg: TrainConfig, out_dir: str | None = None,
                 evaluate: bool = True) -> RunResult:
    """Train per the config; optionally evaluate and write a run directory.

    Step sizes follow a cosine decay over epochs from their configured
    values toward zero, so minibatch jitter around the optimum is annealed
    away and the final parameters are settled rather than oscillating.

    The run directory receives the resolved config, final network
    checkpoints, per-epoch metrics as JSON lines, and the final evaluation
    as a one-row CSV.  On divergence the last finite parameters are saved
    (when a directory is given) and TrainingDiverged is raised.
    """
    t0 = time.perf_counter()
    pin_blas_threads()
    ds = make_dataset(cfg.dataset, cfg.seed)
    root = Rng(cfg.seed)
    enc, dec = build_nets(cfg, ds.n_features, ds.n_classes, root)
    need_kfac = cfg.method == "geoib" or cfg.vib_natural_gradient
    kfac_enc = kfac_dec = None
    if need_kfac:
        kfac_enc = kfac_init(enc, cfg.damping, cfg.kfac_decay, cfg.batch)
        kfac_dec = kfac_init(dec, cfg.damping, cfg.kfac_decay, cfg.batch)
    step = gib_step if cfg.method == "geoib" else train_step
    history: list[dict] = []
    last_good = (enc.get_params(), dec.get_params())
    global_step = 0
    n_train = ds.train_idx.size
    for epoch in range(cfg.epochs):
        decay = 0.5 * (1.0 + np.cos(np.pi * epoch / cfg.epochs))
        cfg_epoch = replace(cfg, eta_phi=cfg.eta_phi * decay,
                            eta_theta=cfg.eta_theta * decay)
        batches = _epoch_batches(root, n_train, cfg, epoch)
        sums = dict.fromkeys(_METRIC_NAMES, 0.0)
        for idx in batches:
            step_rng = root.substream(_STREAM_STEP + global_step)
            # gathered from the dataset's own arrays: no split copy is held
            rows = ds.train_idx[idx]
            try:
                m = step(cfg_epoch, enc, dec, kfac_enc, kfac_dec,
                         ds.features[rows], ds.labels[rows], step_rng)
            except FloatingPointError as exc:
                enc.set_params(last_good[0])
                dec.set_params(last_good[1])
                ckpt = None
                if out_dir is not None:
                    os.makedirs(out_dir, exist_ok=True)
                    enc.save(os.path.join(out_dir, "encoder.last_good.net"))
                    dec.save(os.path.join(out_dir, "decoder.last_good.net"))
                    ckpt = out_dir
                raise TrainingDiverged(
                    f"step {global_step} (epoch {epoch}): {exc}",
                    checkpoint_dir=ckpt,
                ) from exc
            global_step += 1
            for key in _METRIC_NAMES:
                sums[key] += float(getattr(m, key))
        if batches:  # an empty training split records no epoch
            record = {"epoch": epoch}
            record.update({k: v / len(batches) for k, v in sums.items()})
            history.append(record)
            last_good = (enc.get_params(), dec.get_params())
    # the factors end with training: letting them go leaves their memory
    # to the evaluation
    del kfac_enc, kfac_dec
    wall = time.perf_counter() - t0
    point = evaluate_run(cfg, enc, dec, ds, wall) if evaluate else None
    if out_dir is not None:
        write_run_outputs(out_dir, cfg, enc, dec, history, point)
    return RunResult(cfg=cfg, enc=enc, dec=dec, history=history, point=point,
                     dataset=ds, out_dir=out_dir)


def posterior_means(enc: Network, x, k_dim: int) -> np.ndarray:
    """Evaluation-time representation: the posterior mean head mu(x)."""
    return enc.forward(np.asarray(x, dtype=np.float64))[:, :k_dim]


def _standardized(x: np.ndarray) -> np.ndarray:
    """Each column of x less its mean, over its standard deviation (1
    where that is 0).  The result is built in one new array, centred and
    then divided in place, with the bits of `(x - mean) / std`; x itself is
    only read."""
    x = np.asarray(x, dtype=np.float64)
    std = x.std(axis=0)
    out = x - x.mean(axis=0)
    out /= np.where(std > 0.0, std, 1.0)
    return out


def _noise_relative_view(mu: np.ndarray, lv: np.ndarray) -> np.ndarray:
    """Coordinates in which the kNN estimator reads the channel's MI.

    The stochastic code is z = mu(x) + sigma(x) eps, so information lives
    in mu relative to the noise scale: dividing each coordinate by its mean
    posterior sigma (an invertible linear map, MI-preserving) places
    resolvable structure above 1 and noise-dominated structure below it.
    The result is then only ever shrunk, never amplified, to sit at the
    same scale as the standardized features; a max-norm kNN estimate is
    blind to dependence living far below the dominant block's scale, in
    either direction.
    """
    sig = np.exp(0.5 * lv).mean(axis=0)
    snr = (mu - mu.mean(axis=0)) / sig
    top = float(snr.std(axis=0).max())
    if top > 1.0:
        snr = snr / top
    return snr


def evaluate_run(cfg: TrainConfig, enc: Network, dec: Network,
                 ds: DatasetHandle, wall_clock_s: float) -> InfoPlanePoint:
    """Accuracy, mutual information, and inversion leakage at mu(x).

    One encoder pass over every row gives the posterior of the test split,
    the train split and the KSG rows alike: a row's outputs have the same
    bits whichever rows share its pass.  Pins BLAS to one thread first
    (`linalg.pin_blas_threads`): the inversion probe's products on wide
    inputs give other bits on more.

    The features are read where they lie: the probe reads the splits
    `DatasetHandle.split` hands out (views on IDX data), and lets them go
    before KSG runs; KSG reads `ds.features` itself when it takes every
    row, and a gathered copy of its rows only when it takes fewer.  So
    besides the encoder pass, the largest array evaluation allocates is
    the standardized copy of the KSG rows.
    """
    pin_blas_threads()
    mu, lv, _ = posterior_head(enc.forward(ds.features), cfg.k_dim)
    x_te, y_te = ds.split("test")
    mu_te = mu[ds.test_idx]
    acc = classification_accuracy(dec, mu_te, y_te)
    x_tr, _ = ds.split("train")
    inv = inversion_probe(mu[ds.train_idx], x_tr, mu_te, x_te, seed=cfg.seed)
    del x_tr, x_te  # copies on permuted splits: not held across KSG
    joint_dim = ds.n_features + cfg.k_dim
    cap = _MI_CAP_LOW_DIM if joint_dim <= _MI_DIM_SWITCH else _MI_CAP_HIGH_DIM
    # every row when there are at most `cap`, else `cap` rows of the eval
    # stream, the same ones at every evaluation
    n = ds.features.shape[0]
    sel = np.sort(Rng(cfg.seed, stream=_STREAM_EVAL).permutation(n)[:cap])
    x_mi = ds.features if n <= cap else ds.features[sel]
    mi = mi_knn(_standardized(x_mi), _noise_relative_view(mu[sel], lv[sel]))
    return InfoPlanePoint(beta=cfg.beta, k_dim=cfg.k_dim, accuracy=acc,
                          mi_xz_nats=mi, inversion_mse=inv, seed=cfg.seed,
                          wall_clock_s=wall_clock_s, probe=PROBE_NAME,
                          revision=REVISION)


def write_run_outputs(out_dir: str, cfg: TrainConfig, enc: Network,
                      dec: Network, history, point) -> None:
    os.makedirs(out_dir, exist_ok=True)
    save_config(cfg, os.path.join(out_dir, "config.resolved"))
    enc.save(os.path.join(out_dir, "encoder.net"))
    dec.save(os.path.join(out_dir, "decoder.net"))
    with open(os.path.join(out_dir, "metrics.jsonl"), "w", encoding="ascii") as fh:
        for rec in history:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    if point is not None:
        write_points_csv([point], os.path.join(out_dir, "point.csv"))
        write_points_jsonl([point], os.path.join(out_dir, "point.jsonl"))


# ----------------------------------------------------------------- sweeps


def _cell_key(beta: float, k_dim: int, seed: int) -> str:
    # %g keeps existing directory names short; it drops digits past the
    # sixth, so betas it cannot round-trip are spelled out in full
    text = f"{beta:g}"
    if float(text) != beta:
        text = repr(beta)
    return f"beta{text}_k{k_dim}_seed{seed}"


def _read_manifest(path: str) -> dict[str, dict]:
    """Manifest records by cell; a later record of a cell replaces earlier ones.

    A kill in the middle of an append leaves a last line without its
    newline.  If that line does not parse it is dropped with a warning and
    cut from the file; if it does, its newline is added.  Either way the
    next append starts on a fresh line.  Any other line that is not ASCII,
    does not parse, is not a JSON object or names no cell, and an "ok"
    record without its point object, raises ValueError naming the file and
    line.
    """
    if not os.path.exists(path):
        return {}
    with open(path, "rb") as fh:
        data = fh.read()
    cut = data.rfind(b"\n") + 1
    lines, tail = data[:cut].splitlines(), data[cut:]
    if tail.strip():
        try:
            json.loads(tail)
        except ValueError:
            warnings.warn(f"{path}: dropping the partial last line {tail!r}")
            os.truncate(path, cut)
        else:
            lines.append(tail)
            with open(path, "ab") as fh:
                fh.write(b"\n")
    records = {}
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line.decode("ascii"))
            records[rec["cell"]] = rec
        except (ValueError, TypeError, KeyError) as exc:
            raise ValueError(f"{path}, line {number}: not a manifest record "
                             f"naming its cell ({exc})") from exc
        if rec.get("status") == "ok" and not isinstance(rec.get("point"), dict):
            raise ValueError(f"{path}, line {number}: an ok record without "
                             f"its point")
    return records


def _check_reused_cell(cell_dir: str, cfg: TrainConfig, point: dict) -> None:
    """Refuse to reuse a finished cell trained under another config or
    another training revision, or whose recorded point another inversion
    probe scored."""
    revision = point.get("revision")
    if revision != REVISION:
        raise ValueError(f"{cell_dir} was trained at revision {revision!r}, "
                         f"now {REVISION!r}; sweep into a new directory")
    probe = point.get("probe")
    if probe != PROBE_NAME:
        raise ValueError(f"{cell_dir} was scored by the inversion probe "
                         f"{probe!r}, now {PROBE_NAME!r}; sweep into a new "
                         "directory")
    saved = load_config(os.path.join(cell_dir, "config.resolved"))
    diff = [f"{f.name} = {getattr(saved, f.name)!r}, now {getattr(cfg, f.name)!r}"
            for f in fields(TrainConfig)
            if getattr(saved, f.name) != getattr(cfg, f.name)]
    if diff:
        raise ValueError(f"{cell_dir} was trained with a different config "
                         f"({'; '.join(diff)}); sweep into a new directory")


def run_sweep(base_cfg: TrainConfig, out_dir: str, betas, k_dims,
              seeds=(0,)) -> list[InfoPlanePoint]:
    """Grid product of (beta, k_dim, seed) runs with resumability.

    Completed cells are recorded in manifest.jsonl and skipped on re-entry;
    failed cells are recorded with the error, do not stop the sweep, and
    are trained again on re-entry.  Before anything is trained, every
    completed cell's saved config must equal the one the grid gives it, and
    its recorded point must name the current training revision and
    inversion probe, or ValueError says what differs.  The aggregate
    info_plane.csv and points.jsonl are rewritten at the end from all
    successful cells.  An empty axis, a value TrainConfig refuses, or two
    grid values that name the same cell (1e-4 and 0.0001, say) raise
    ValueError before out_dir is touched.
    """
    for name, axis in (("betas", betas), ("k_dims", k_dims), ("seeds", seeds)):
        if len(axis) == 0:
            raise ValueError(f"the sweep grid is empty: no {name} given")
    cells = [(_cell_key(beta, k_dim, seed),
              replace(base_cfg, beta=beta, k_dim=k_dim, seed=seed))
             for beta in betas for k_dim in k_dims for seed in seeds]
    keys = set()
    for key, _ in cells:
        if key in keys:
            raise ValueError(f"the sweep grid names cell {key} twice")
        keys.add(key)
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.jsonl")
    done = _read_manifest(manifest_path)
    reused = {key for key, _ in cells if done.get(key, {}).get("status") == "ok"}
    for key, cfg in cells:
        if key in reused:
            _check_reused_cell(os.path.join(out_dir, key), cfg,
                               done[key]["point"])
    points: list[InfoPlanePoint] = []
    with open(manifest_path, "a", encoding="ascii") as manifest:
        for key, cfg in cells:
            if key in reused:
                points.append(InfoPlanePoint(**done[key]["point"]))
                continue
            try:
                res = run_training(cfg, out_dir=os.path.join(out_dir, key))
                rec = {"cell": key, "status": "ok", "point": asdict(res.point)}
                points.append(res.point)
            except Exception as exc:  # record and continue the grid
                rec = {"cell": key, "status": "error",
                       "error": f"{type(exc).__name__}: {exc}"}
            manifest.write(json.dumps(rec, sort_keys=True) + "\n")
            manifest.flush()
    write_points_csv(points, os.path.join(out_dir, "info_plane.csv"))
    write_points_jsonl(points, os.path.join(out_dir, "points.jsonl"))
    return points
