"""Command-line entry points.

Subcommands: train (one run), sweep (beta/K/seed grid), eval (re-score a
finished run directory), verify (property suite with a pass/fail table),
gen-data (materialize datasets), inspect-idx (describe an IDX file).
Every TrainConfig field is a flag with the same name; a --config file is
applied first and flags override it.  Exit code 0 only on full success.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import fields, replace

import numpy as np

from .config import TrainConfig, load_config, parse_value
from .data import (
    IDX_MAGIC_IMAGES,
    IDX_MAGIC_LABELS,
    make_dataset,
    read_idx,
    write_digit_corpus,
)
from .mi import CSV_COLUMNS, point_row, read_points_jsonl
from .nets import Network
from .training import TrainingDiverged, evaluate_run, run_sweep, run_training

# Default information-plane grids of `geoib sweep`.
DEFAULT_BETA_GRID = tuple(10.0**e for e in range(-6, 2))
DEFAULT_K_GRID = (2, 4, 8, 16, 32, 64, 128, 256, 512)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="key=value config file, applied before flags")
    group = parser.add_argument_group("config fields")
    for f in fields(TrainConfig):
        group.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                           default=None, metavar="V",
                           help=f"default {getattr(TrainConfig(), f.name)!r}")


def _resolve_config(args) -> TrainConfig:
    cfg = load_config(args.config) if args.config else TrainConfig()
    updates = {}
    for f in fields(TrainConfig):
        raw = getattr(args, f.name)
        if raw is not None:
            updates[f.name] = parse_value(f.name, raw)
    return replace(cfg, **updates)


def _point_lines(points) -> list[str]:
    return [",".join(CSV_COLUMNS)] + [",".join(point_row(p)) for p in points]


def _list(raw: str, cast) -> list:
    return [cast(tok) for tok in raw.split(",") if tok.strip()]


# ------------------------------------------------------------- subcommands


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    try:
        result = run_training(cfg, out_dir=args.out)
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        if exc.checkpoint_dir:
            print(f"last-good checkpoint in {exc.checkpoint_dir}", file=sys.stderr)
        return 1
    for line in _point_lines([result.point]):
        print(line)
    if args.out:
        print(f"run directory: {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    betas = (list(DEFAULT_BETA_GRID) if args.betas is None
             else _list(args.betas, float))
    k_dims = (list(DEFAULT_K_GRID) if args.k_dims is None
              else _list(args.k_dims, int))
    seeds = _list(args.seeds, int)
    points = run_sweep(cfg, args.out, betas=betas, k_dims=k_dims, seeds=seeds)
    n_cells = len(betas) * len(k_dims) * len(seeds)
    for line in _point_lines(points):
        print(line)
    print(f"{len(points)}/{n_cells} cells succeeded; outputs in {args.out}")
    if len(points) < n_cells:
        print("some cells failed; see manifest.jsonl", file=sys.stderr)
        return 1
    return 0


def _cmd_eval(args) -> int:
    cfg = load_config(os.path.join(args.run_dir, "config.resolved"))
    enc = Network.load(os.path.join(args.run_dir, "encoder.net"))
    dec = Network.load(os.path.join(args.run_dir, "decoder.net"))
    # wall_clock_s means training time; carry it over from the run when
    # known.  A kill while the run wrote point.jsonl can leave it empty or
    # cut mid-line: a record that does not parse, or does not hold a
    # point's fields, counts as missing.
    trained = os.path.join(args.run_dir, "point.jsonl")
    points = []
    if os.path.exists(trained):
        try:
            points = read_points_jsonl(trained)
        except ValueError as exc:
            warnings.warn(f"wall_clock_s is nan, as {exc}")
    wall = points[0].wall_clock_s if points else float("nan")
    ds = make_dataset(cfg.dataset, cfg.seed)
    point = evaluate_run(cfg, enc, dec, ds, wall)
    for line in _point_lines([point]):
        print(line)
    return 0


def _cmd_verify(args) -> int:
    # imported here, so train, sweep and eval do not load the property suite
    from .verify import run_all_checks, write_results

    results = run_all_checks(seed=args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.metric}")
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    if args.out:
        write_results(results, args.out)
        print(f"results written to {args.out}")
    return 1 if n_fail else 0


def _cmd_gen_data(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    if args.kind == "digits":
        write_digit_corpus(args.out, args.n_train, args.n_test, args.seed)
        print(f"digit corpus ({args.n_train} train, {args.n_test} test) in {args.out}")
        return 0
    opts = [f"{key}={value!r}" for key, value in (("n", args.n), ("noise", args.noise))
            if value is not None]
    ds = make_dataset(":".join([args.kind, ",".join(opts)]), args.seed)
    np.savetxt(os.path.join(args.out, "features.csv"), ds.features,
               delimiter=",", fmt="%.17g")
    np.savetxt(os.path.join(args.out, "labels.csv"), ds.labels, fmt="%d")
    with open(os.path.join(args.out, "metadata.json"), "w", encoding="ascii") as fh:
        json.dump(ds.metadata, fh, sort_keys=True, indent=2, default=str)
        fh.write("\n")
    print(f"{args.kind} dataset ({ds.features.shape[0]} rows) in {args.out}")
    return 0


def _cmd_inspect_idx(args) -> int:
    arr = read_idx(args.path)
    # read_idx takes only the two magics: rank 3 is images, rank 1 labels
    kind, magic = (("images", IDX_MAGIC_IMAGES) if arr.ndim == 3
                   else ("labels", IDX_MAGIC_LABELS))
    print(f"{args.path}: {kind}, magic 0x{magic:08x}")
    print(f"shape {arr.shape}, dtype {arr.dtype}")
    if kind == "labels":
        values, counts = np.unique(arr, return_counts=True)
        hist = ", ".join(f"{v}:{c}" for v, c in zip(values, counts))
        print(f"label histogram: {hist}")
    elif arr.size == 0:
        print("no pixels")
    else:
        print(f"pixel range [{arr.min()}, {arr.max()}], "
              f"mean {arr.mean():.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoib",
        description="Information-bottleneck training with natural gradients "
                    "and geometric penalties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one configuration")
    _add_config_flags(p)
    p.add_argument("--out", metavar="DIR", default=None,
                   help="run directory (config, checkpoints, metrics)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep", help="train a beta x k_dim x seed grid")
    _add_config_flags(p)
    p.add_argument("--out", metavar="DIR", required=True)
    p.add_argument("--betas", metavar="B1,B2,...",
                   help="comma-separated betas (default: log grid 1e-6..1e1)")
    p.add_argument("--k-dims", metavar="K1,K2,...",
                   help="comma-separated dimensions (default: 2,4,...,512)")
    p.add_argument("--seeds", metavar="S1,S2,...", default="0")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("eval", help="re-score a finished run directory")
    p.add_argument("run_dir")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="run the deterministic property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the pass/fail table as CSV (no timing data)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen-data", help="materialize a dataset on disk")
    p.add_argument("--kind", required=True,
                   choices=("gauss_mixture", "two_moons", "digits"))
    p.add_argument("--out", metavar="DIR", required=True)
    p.add_argument("--n", type=int, default=None,
                   help="sample count for synthetic kinds "
                        "(default: the dataset spec's)")
    p.add_argument("--noise", type=float, default=None,
                   help="noise for synthetic kinds (default: the dataset spec's)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-train", type=int, default=10000,
                   help="digits: training image count")
    p.add_argument("--n-test", type=int, default=2000,
                   help="digits: test image count")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("inspect-idx", help="describe an IDX-format file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_inspect_idx)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
