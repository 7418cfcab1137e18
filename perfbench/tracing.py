"""Spans and counters recorded around calls into geoib.

Hooks are installed by attribute patching from this file; geoib itself is
not changed.  A span is (name, start, end, parent) with `perf_counter`
times, kept in memory and written out by the worker when it ends.

Two hook sets exist.  The light set is always installed: it marks the
runs, the optimizer steps, evaluation and output writing, and checks every
natural-gradient solve.  Those few hooks give the end-to-end metrics and
the failure count.  The full set adds a span or a counter at each layer
boundary named in the README; it is installed only for a traced run.

Spans whose names start with "check." hold the benchmark's own checking
work.  Their time is taken out of every timed metric.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from checks import SOLVE_TOL, kfac_residual

EXCLUDED_PREFIX = "check."


class Recorder:
    """In-memory spans, counters and samples of one worker process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self.solves_in_step: list[float] | None = None

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._open.pop()

    def timed(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def excluded_s(self, until: float) -> float:
        """Time in outermost check spans that ended by `until`."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if (name.startswith(EXCLUDED_PREFIX) and end <= until
                    and not self._inside_check(parent)):
                total += end - start
        return total

    def _inside_check(self, parent: int) -> bool:
        while parent >= 0:
            if self.spans[parent][0].startswith(EXCLUDED_PREFIX):
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


def _wrap(rec: Recorder, owner, attr: str, name: str) -> None:
    orig = getattr(owner, attr)
    setattr(owner, attr, lambda *args, **kwargs: rec.timed(name, orig, *args, **kwargs))


def _wrap_count(rec: Recorder, owner, attr: str, counter: str) -> None:
    orig = getattr(owner, attr)

    def counted(*args, **kwargs):
        rec.counts[counter] += 1
        return orig(*args, **kwargs)

    setattr(owner, attr, counted)


def install_light(rec: Recorder) -> None:
    """Runs, steps, evaluation, output writing and the solve check."""
    from geoib import training

    orig_run = training.run_training

    def run_training(cfg, *args, **kwargs):
        return rec.timed("training.run_training." + cfg.method, orig_run,
                         cfg, *args, **kwargs)

    training.run_training = run_training
    _wrap(rec, training, "evaluate_run", "training.evaluate_run")
    _wrap(rec, training, "write_run_outputs", "training.write_run_outputs")

    orig_step = training.gib_step

    def gib_step(*args, **kwargs):
        rec.solves_in_step = []
        try:
            return rec.timed("training.gib_step", orig_step, *args, **kwargs)
        finally:
            residuals = rec.solves_in_step
            rec.solves_in_step = None
            rec.counts["steps"] += 1
            if any(not r <= SOLVE_TOL for r in residuals) or len(residuals) != 2:
                rec.counts["failed_steps"] += 1

    training.gib_step = gib_step

    orig_ng = training.natural_gradient

    def natural_gradient(fisher, grad, *args, **kwargs):
        step = rec.timed("fisher.natural_gradient", orig_ng,
                         fisher, grad, *args, **kwargs)
        idx = rec.begin("check.solve_residual")
        try:
            res = kfac_residual(fisher.a_factors, fisher.g_factors,
                                fisher.damping, step.direction, grad)
            if rec.solves_in_step is not None:
                role = ("enc", "dec")[min(len(rec.solves_in_step), 1)]
                rec.solves_in_step.append(res)
                rec.samples[role + "_residual"].append(res)
                rec.samples["solve_iters"].append(step.iterations)
                rec.counts["zero_directions"] += not np.any(step.direction)
        finally:
            rec.end(idx)
        return step

    training.natural_gradient = natural_gradient


def install_full(rec: Recorder) -> None:
    """Every layer boundary the per-layer metrics read."""
    from geoib import fisher, jf, rng, training, verify

    _wrap(rec, training, "make_dataset", "data.make_dataset")
    _wrap(rec, training, "geoib_loss_and_grads", "training.loss_and_grads")
    _wrap(rec, training, "jf_value_and_grad", "jf.value_and_grad")
    for owner in (training, jf, verify):
        _wrap(rec, owner, "draw_probes", "jf.draw_probes")
    _wrap(rec, verify, "jf_hutchinson", "jf.hutchinson")
    _wrap(rec, training, "kfac_update", "fisher.kfac_update")
    orig_knn = training.mi_knn

    def mi_knn(x, z, *args, **kwargs):
        rec.counts["mi.ksg_points"] += len(x)
        return rec.timed("mi.mi_knn", orig_knn, x, z, *args, **kwargs)

    training.mi_knn = mi_knn
    _wrap(rec, training, "inversion_probe", "mi.inversion_probe")
    _wrap(rec, training, "run_sweep", "training.run_sweep")
    _wrap_count(rec, fisher, "fisher_vector_product", "fisher.fvp_calls")
    _wrap_count(rec, rng.Rng, "substream", "rng.substreams")


# ------------------------------------------------------------------ metrics


def _durations(rec: Recorder):
    """Per-span inclusive and self time, both net of check spans."""
    n = len(rec.spans)
    inclusive = [end - start for _, start, end, _ in rec.spans]
    child_time = [0.0] * n
    check_inside = [0.0] * n
    for i in range(n - 1, -1, -1):
        name, start, end, parent = rec.spans[i]
        if parent < 0:
            continue
        if name.startswith(EXCLUDED_PREFIX):
            check_inside[parent] += inclusive[i]
        else:
            child_time[parent] += inclusive[i] - check_inside[i]
            check_inside[parent] += check_inside[i]
    net = [inclusive[i] - check_inside[i] for i in range(n)]
    self_time = [net[i] - child_time[i] for i in range(n)]
    return net, self_time


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p90(values) -> float:
    # The 90th percentile has at least ten samples beyond it only from 100.
    if len(values) < 100:
        return 0.0
    return float(np.percentile(values, 90))


def time_in(rec: Recorder, prefix: str) -> float:
    """Summed net time of the spans whose names start with `prefix`."""
    net, _ = _durations(rec)
    return sum(net[i] for i, s in enumerate(rec.spans) if s[0].startswith(prefix))


def geoib_train_s(rec: Recorder) -> float:
    """Time in geoib `run_training` outside evaluation and output writing."""
    net, _ = _durations(rec)
    total = 0.0
    run_idx = {i for i, s in enumerate(rec.spans)
               if s[0] == "training.run_training.geoib"}
    for i, (name, _, _, parent) in enumerate(rec.spans):
        if i in run_idx:
            total += net[i]
        elif parent in run_idx and name in ("training.evaluate_run",
                                            "training.write_run_outputs"):
            total -= net[i]
    return total


def per_layer(rec: Recorder, check_names) -> dict[str, float]:
    net, self_time = _durations(rec)
    incl: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for i, span in enumerate(rec.spans):
        incl[span[0]] += net[i]
        own[span[0]] += self_time[i]
    steps_ms = [1e3 * net[i] for i, s in enumerate(rec.spans)
                if s[0] == "training.gib_step"]
    m = {
        "data.render_s": incl["data.render"],
        "data.images_rendered": rec.counts["data.images_rendered"],
        "data.make_dataset_s": incl["data.make_dataset"],
        "rng.substreams": rec.counts["rng.substreams"],
        "jf.draw_probes_s": own["jf.draw_probes"],
        "jf.value_and_grad_s": own["jf.value_and_grad"],
        "jf.hutchinson_s": own["jf.hutchinson"],
        "training.loss_and_grads_s": own["training.loss_and_grads"],
        "fisher.kfac_update_s": own["fisher.kfac_update"],
        "fisher.natural_gradient_s": own["fisher.natural_gradient"],
        "fisher.fvp_calls": rec.counts["fisher.fvp_calls"],
        "fisher.solve_iters_p50": _median(rec.samples["solve_iters"]),
        "fisher.zero_directions": rec.counts["zero_directions"],
        "fisher.enc_residual_p50": _median(rec.samples["enc_residual"]),
        "fisher.dec_residual_p50": _median(rec.samples["dec_residual"]),
        "training.step_self_s": own["training.gib_step"],
        "training.step_ms_p50": _median(steps_ms),
        "training.step_ms_p90": _p90(steps_ms),
        "training.steps": rec.counts["steps"],
        "training.vib_train_s": incl["training.run_training.vib"],
        "training.evaluate_s": incl["training.evaluate_run"],
        "training.write_outputs_s": incl["training.write_run_outputs"],
        "mi.mi_knn_s": incl["mi.mi_knn"],
        "mi.ksg_points": rec.counts["mi.ksg_points"],
        "mi.inversion_probe_s": incl["mi.inversion_probe"],
    }
    for name in check_names:
        m[f"verify.{name}_s"] = incl["verify." + name]
    return m


def top_level_s(rec: Recorder, until: float) -> float:
    """Time covered by top-level spans that are not checks."""
    net, _ = _durations(rec)
    return sum(net[i] for i, s in enumerate(rec.spans)
               if s[3] < 0 and s[2] <= until
               and not s[0].startswith(EXCLUDED_PREFIX))
