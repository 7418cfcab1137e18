"""The three workloads: inputs, the calls into geoib, and output checks.

Each workload has `setup` (materialise the inputs handed to the program),
`run` (the timed calls) and `check` (the benchmark's own checks of the
outputs, untimed), plus `ops` (operations attempted and failed).

The inputs that carry optimizer steps do not depend on the seed: every
geoib step fails today (see README), and a count of failures is only
comparable across runs when it is made on the same inputs.  The digits
test split, which only evaluation reads, is rendered from the seed.
"""

from __future__ import annotations

import json
import os

import numpy as np

import checks
import tracing

# mixture_sweep: the default config, two beta cells at K = 8, seed 0.
SWEEP_BETAS = (1e-4, 1.0)
SWEEP_K = 8

# digits: a 1000-image training corpus (900 train rows, 100 validation)
# and a 200-image test split; 8 steps per epoch.
DIGITS_TRAIN = 1000
DIGITS_TEST = 200
DIGITS_EPOCHS = 10
DIGITS_K = 32
DIGITS_TRAIN_SEED = 0

ACCURACY_FLOOR = 0.95
VIB_PARITY_SLACK = 0.01


class Context:
    def __init__(self, rec, work_dir: str, seed: int):
        self.rec = rec
        self.work_dir = work_dir
        self.seed = seed
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


# ------------------------------------------------------------ mixture_sweep


class MixtureSweep:
    name = "mixture_sweep"

    def setup(self, ctx):
        from geoib.config import TrainConfig
        return {"cfg": TrainConfig(), "out": os.path.join(ctx.work_dir, "sweep")}

    def run(self, ctx, inp):
        from geoib import training
        return training.run_sweep(inp["cfg"], inp["out"], betas=SWEEP_BETAS,
                                  k_dims=(SWEEP_K,), seeds=(0,))

    def check(self, ctx, inp, points):
        from geoib import training
        from geoib.data import make_dataset
        cfg, out = inp["cfg"], inp["out"]
        ctx.expect(len(points) == len(SWEEP_BETAS),
                   f"sweep returned {len(points)} points, expected {len(SWEEP_BETAS)}")
        if len(points) != len(SWEEP_BETAS):
            return
        low, high = points
        with open(os.path.join(out, "manifest.jsonl"), encoding="ascii") as fh:
            cells = {rec["point"]["beta"]: rec["cell"]
                     for rec in map(json.loads, fh) if rec["status"] == "ok"}
        cell = os.path.join(out, cells[SWEEP_BETAS[0]])
        x_te, y_te = make_dataset(cfg.dataset, 0).split("test")
        acc = checks.accuracy(os.path.join(cell, "encoder.net"),
                              os.path.join(cell, "decoder.net"), x_te, y_te, SWEEP_K)
        ctx.expect(acc >= ACCURACY_FLOOR,
                   f"beta=1e-4 test accuracy {acc:.4f} < {ACCURACY_FLOOR}")
        rows = checks.read_points_csv(os.path.join(cell, "point.csv"))
        ctx.expect(len(rows) == 1 and float(rows[0]["accuracy"]) == acc,
                   f"point.csv accuracy differs from the recomputed {acc!r}")
        ctx.expect(high.mi_xz_nats <= low.mi_xz_nats,
                   f"beta=1 MI {high.mi_xz_nats:.4f} > beta=1e-4 MI {low.mi_xz_nats:.4f}")
        ctx.expect(high.inversion_mse >= low.inversion_mse,
                   f"beta=1 inversion MSE {high.inversion_mse:.5f} < "
                   f"beta=1e-4 MSE {low.inversion_mse:.5f}")
        rows = checks.read_points_csv(os.path.join(out, "info_plane.csv"))
        ctx.expect(len(rows) == len(points)
                   and all(checks.same_point(r, p) for r, p in zip(rows, points)),
                   "info_plane.csv does not round-trip to the returned points")
        steps_before = ctx.rec.counts["steps"]
        again = training.run_sweep(cfg, out, betas=SWEEP_BETAS,
                                   k_dims=(SWEEP_K,), seeds=(0,))
        ctx.expect(ctx.rec.counts["steps"] == steps_before,
                   "re-entering the sweep trained again")
        ctx.expect(again == points, "re-entering the sweep changed its points")

    def ops(self, ctx, outputs):
        counts = ctx.rec.counts
        return counts["steps"], counts["failed_steps"], tracing.geoib_train_s(ctx.rec)


# ------------------------------------------------------------------ digits

_IDX_NAMES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


class Digits:
    name = "digits"

    def setup(self, ctx):
        from geoib.data import render_digit_set, write_idx
        corpus = os.path.join(ctx.work_dir, "corpus")
        os.makedirs(corpus)
        parts = {"train": (DIGITS_TRAIN, DIGITS_TRAIN_SEED),
                 "test": (DIGITS_TEST, 1 + ctx.seed)}
        rendered = {}
        for split, (n, seed) in parts.items():
            rendered[split] = ctx.rec.timed("data.render", render_digit_set, n, seed)
            ctx.rec.counts["data.images_rendered"] += n
        idx = ctx.rec.begin("data.write_idx")
        for split, arrays in rendered.items():
            for name, array in zip(_IDX_NAMES[split], arrays):
                write_idx(os.path.join(corpus, name), array)
        ctx.rec.end(idx)
        # Read every file back with the benchmark's own parser.
        idx = ctx.rec.begin("data.read_back")
        loaded = {}
        for split, arrays in rendered.items():
            images, labels = (checks.read_idx(os.path.join(corpus, name))
                              for name in _IDX_NAMES[split])
            ctx.expect(np.array_equal(images, arrays[0])
                       and np.array_equal(labels, arrays[1]),
                       f"{split} IDX files do not hold the rendered corpus")
            ctx.expect(checks.balanced(labels), f"{split} labels are not balanced")
            loaded[split] = (images, labels)
        ctx.rec.end(idx)
        return {"corpus": corpus, "test": loaded["test"]}

    def _cfg(self, method, corpus):
        from geoib.config import TrainConfig
        return TrainConfig(method=method, beta=1e-4, k_dim=DIGITS_K,
                           epochs=DIGITS_EPOCHS, seed=0,
                           dataset=f"idx:path={corpus}")

    def run(self, ctx, inp):
        from geoib import training
        dirs = {m: os.path.join(ctx.work_dir, m) for m in ("geoib", "vib")}
        training.run_training(self._cfg("geoib", inp["corpus"]), out_dir=dirs["geoib"])
        training.run_training(self._cfg("vib", inp["corpus"]), out_dir=dirs["vib"],
                              evaluate=False)
        return dirs

    def check(self, ctx, inp, dirs):
        images, labels = inp["test"]
        x = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
        acc = {m: checks.accuracy(os.path.join(d, "encoder.net"),
                                  os.path.join(d, "decoder.net"), x, labels, DIGITS_K)
               for m, d in dirs.items()}
        ctx.expect(acc["geoib"] >= ACCURACY_FLOOR,
                   f"geoib test accuracy {acc['geoib']:.4f} < {ACCURACY_FLOOR}")
        ctx.expect(acc["geoib"] >= acc["vib"] - VIB_PARITY_SLACK,
                   f"geoib accuracy {acc['geoib']:.4f} below vib {acc['vib']:.4f} "
                   f"by more than {VIB_PARITY_SLACK}")
        rows = checks.read_points_csv(os.path.join(dirs["geoib"], "point.csv"))
        ctx.expect(len(rows) == 1 and float(rows[0]["accuracy"]) == acc["geoib"],
                   "point.csv accuracy differs from the recomputed one")

    def ops(self, ctx, outputs):
        counts = ctx.rec.counts
        return counts["steps"], counts["failed_steps"], tracing.geoib_train_s(ctx.rec)


# ------------------------------------------------------------------ verify


def check_name(fn) -> str:
    return fn.__name__.removeprefix("check_")


class Verify:
    name = "verify"

    def setup(self, ctx):
        from geoib import verify
        return {"checks": verify.ALL_CHECKS}

    def run(self, ctx, inp):
        return [ctx.rec.timed("verify." + check_name(fn), fn, seed=0)
                for fn in inp["checks"]]

    def check(self, ctx, inp, results):
        """A check that does not pass fails the run, and is also a failed
        operation (`ops`)."""
        for r in results:
            ctx.expect(r.passed, f"verify check did not pass: {r.line()}")

    def ops(self, ctx, results):
        failed = sum(not r.passed for r in results)
        return len(results), failed, tracing.time_in(ctx.rec, "verify.")


WORKLOADS = {w.name: w for w in (MixtureSweep(), Digits(), Verify())}
