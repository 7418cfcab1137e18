"""Flat key=value run configuration.

A config file is UTF-8 text: one `key = value` per line, '#' starts a
comment, nothing nests, and only comments may hold non-ASCII characters.
Every run writes its fully resolved config next to its outputs, with every
field spelled out, so a run directory is self-describing and re-runnable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace

METHODS = ("geoib", "vib")
# Keys of older run configs that no longer mean anything, with the reason
# given when one is skipped.
LEGACY_KEYS = {
    "cg_tol": "the K-FAC solve is exact",
    "cg_max_iter": "the K-FAC solve is exact",
    "fisher_stats": "factor statistics are always the model's Fisher",
    "fr_mode": "the method fixes the rate term",
    "sigma_floor": "noise variances are floored by the log-variance clamp",
}


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run depends on.

    Attributes:
        method: "geoib" (natural gradient on NLL + beta times the
            Fisher-Rao quadratic rate and the Jacobian-Frobenius penalty)
            or "vib" (the variational baseline: NLL + beta times the
            closed-form KL, no Jacobian term, plain gradient descent).
            The method alone fixes the objective.
        beta: compression weight.
        k_dim: representation dimension.
        jf_probes: Hutchinson probe count per step.
        eta_phi / eta_theta: encoder / decoder step sizes.
        damping: Tikhonov damping added to each Kronecker factor, > 0.
            The solve inverts the damped factors exactly, so a direction of
            factor curvature c is scaled by about 1 / (c + damping); at
            1e-3 the digits runs generalized worse than at 1e-2.
        batch: minibatch size.
        epochs: passes over the training split.
        seed: run seed in [0, 2**64); fixes data, init, and every
            stochastic draw.
        step_clip: per-step cap on the parameter displacement norm, applied
            by scaling (direction preserved); 0 disables.  Guards against
            the huge early steps a barely-warmed Fisher produces.
        dataset: dataset spec string, e.g. "gauss_mixture:n=5000,noise=0.14".
        enc_hidden / dec_hidden: comma-separated hidden widths ('' = none).
        kfac_decay: EMA decay of the Kronecker factors.  Factor
            statistics are the model's Fisher (the decoder's exact output
            Fisher, the encoder's score at the step's codes), not the
            empirical one: empirical factors shrink with the loss gradient,
            so as a large-beta code collapses the exact step
            g / (G + damping) would stop shrinking with g and overshoot.
        vib_natural_gradient: precondition the vib baseline too (ablation),
            with the same factor statistics and exact solve as geoib.
    """

    method: str = "geoib"
    beta: float = 1e-4
    k_dim: int = 8
    jf_probes: int = 2
    eta_phi: float = 0.2
    eta_theta: float = 0.2
    damping: float = 1e-2
    batch: int = 128
    epochs: int = 50
    seed: int = 0
    step_clip: float = 1.0
    dataset: str = "gauss_mixture:n=5000,noise=0.14"
    enc_hidden: str = "32"
    dec_hidden: str = ""
    kfac_decay: float = 0.95
    vib_natural_gradient: bool = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            # config_text writes strings verbatim to an ASCII file and the
            # parser cuts lines at '#' and strips them, so such a value would
            # not write back or read back
            if isinstance(value, str) and (not value.isascii() or "#" in value
                                           or value != value.strip()
                                           or len(value.splitlines()) > 1):
                raise ValueError(f"{f.name} must be one line of ASCII without '#' "
                                 f"or surrounding blanks, got {value!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        for name in ("k_dim", "jf_probes", "batch", "epochs", "damping"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("eta_phi", "eta_theta", "step_clip"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if not 0.0 <= self.kfac_decay < 1.0:
            raise ValueError(f"kfac_decay must lie in [0, 1), got {self.kfac_decay}")
        self.hidden_dims("enc")
        self.hidden_dims("dec")

    def hidden_dims(self, which: str) -> list[int]:
        name = f"{which}_hidden"
        raw = getattr(self, name)
        if not raw:
            return []
        toks = [tok.strip() for tok in raw.split(",")]
        if not all(tok.isdecimal() and int(tok) > 0 for tok in toks):
            raise ValueError(f"{name} must be comma-separated positive integers, "
                             f"got {raw!r}")
        return [int(tok) for tok in toks]


# Field types by name (annotations are strings under postponed evaluation).
_FIELD_TYPES = {f.name: {"str": str, "float": float, "int": int, "bool": bool}[f.type]
                for f in fields(TrainConfig)}
_BOOLEANS = {"true": True, "1": True, "yes": True,
             "false": False, "0": False, "no": False}


def parse_value(key: str, raw: str):
    """The value of the TrainConfig field `key` written as `raw`, the one
    parser for config files and command-line flags.

    Raises:
        ValueError: on an unknown key or a value its field cannot take.
    """
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown key {key!r}")
    ftype = _FIELD_TYPES[key]
    if ftype is bool:
        if raw.lower() not in _BOOLEANS:
            raise ValueError(f"bad value for {key}: expected a boolean, got {raw!r}")
        return _BOOLEANS[raw.lower()]
    try:
        return ftype(raw)
    except ValueError as exc:
        raise ValueError(f"bad value for {key}: {exc}") from exc


def load_config(path) -> TrainConfig:
    """The TrainConfig a UTF-8 config file gives: its key = value lines
    applied over the defaults one at a time, so TrainConfig's checks, each
    of one field, fire at the line that sets it.

    Keys in LEGACY_KEYS are skipped with a warning from the key's own line
    of the file, so configs written by older runs still load.

    Raises:
        ValueError: naming the file and line, on text that is not UTF-8,
            non-ASCII text outside a comment, malformed lines, unknown
            keys, or values that do not parse or that TrainConfig rejects.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}, line {lineno}: not UTF-8 text "
                         f"({exc.reason})") from exc
    cfg = TrainConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if not stripped.isascii():
            raise ValueError(f"{path}, line {lineno}: non-ASCII text outside "
                             f"a comment: {line!r}")
        if "=" not in stripped:
            raise ValueError(f"{path}, line {lineno}: expected key = value, "
                             f"got {line!r}")
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if key in LEGACY_KEYS:
            warnings.warn_explicit(f"ignoring legacy key {key!r}; {LEGACY_KEYS[key]}",
                                   UserWarning, str(path), lineno)
            continue
        try:
            cfg = replace(cfg, **{key: parse_value(key, raw)})
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from exc
    return cfg


def config_text(cfg: TrainConfig) -> str:
    """Render every field, one per line, in declaration order."""
    lines = []
    for f in fields(TrainConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def save_config(cfg: TrainConfig, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(config_text(cfg))
