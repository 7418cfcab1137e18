"""Self-tests of the benchmark's checkers and of its printed metric names.

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import ACCURACY_FLOOR, Context, Verify, check_name  # noqa: E402

from geoib import verify  # noqa: E402
from geoib.config import TrainConfig  # noqa: E402
from geoib.fisher import kfac_init, kfac_update, natural_gradient  # noqa: E402
from geoib.mi import classification_accuracy  # noqa: E402
from geoib.nets import LayerSpec, Network  # noqa: E402
from geoib.rng import Rng  # noqa: E402
from geoib.training import posterior_means, run_training  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


# ------------------------------------------------------------ solve residual


def _kfac_problem():
    rng = Rng(3)
    net = Network([LayerSpec(4, 5, "tanh"), LayerSpec(5, 3, "identity")], rng)
    out = net.forward(rng.normal((32, 4)), capture=True)
    net.backward(rng.normal(out.shape))
    state = kfac_init(net, damping=1e-3, ema_decay=0.0)
    kfac_update(state, net)
    return state, rng.normal(net.n_params)


def _residual(state, direction, grad):
    return checks.kfac_residual(state.a_factors, state.g_factors,
                                state.damping, direction, grad)


def test_residual_flags_a_solve_cut_to_two_cg_iterations():
    state, g = _kfac_problem()
    step = natural_gradient(state, g, tol=1e-14, max_iter=2)
    assert _residual(state, step.direction, g) > checks.SOLVE_TOL


def test_residual_passes_a_dense_kronecker_solve():
    state, g = _kfac_problem()
    lam = state.damping
    parts, offset = [], 0
    for a_f, g_f in zip(state.a_factors, state.g_factors):
        dense = np.kron(g_f + lam * np.eye(g_f.shape[0]),
                        a_f + lam * np.eye(a_f.shape[0]))
        size = dense.shape[0]
        parts.append(np.linalg.solve(dense, g[offset : offset + size]))
        offset += size
    assert _residual(state, np.concatenate(parts), g) <= 1e-10


# ------------------------------------------------------------------ accuracy


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run"))
    cfg = TrainConfig(epochs=10, dataset="gauss_mixture:n=1000,noise=0.14")
    res = run_training(cfg, out_dir=out, evaluate=False)
    return cfg, res, out


def _ours(cfg, out, x, y):
    return checks.accuracy(os.path.join(out, "encoder.net"),
                           os.path.join(out, "decoder.net"), x, y, cfg.k_dim)


def test_accuracy_agrees_with_the_program_on_a_trained_net(trained):
    cfg, res, out = trained
    x, y = res.dataset.split("test")
    theirs = classification_accuracy(res.dec, posterior_means(res.enc, x, cfg.k_dim), y)
    assert _ours(cfg, out, x, y) == theirs
    assert theirs >= ACCURACY_FLOOR


def test_accuracy_flags_permuted_labels(trained):
    cfg, res, out = trained
    x, y = res.dataset.split("test")
    assert _ours(cfg, out, x, y[Rng(5).permutation(y.size)]) < ACCURACY_FLOOR


# ------------------------------------------------------------------- files


def test_idx_reader_rejects_a_truncated_file(tmp_path):
    from geoib.data import write_idx
    path = tmp_path / "labels"
    write_idx(path, np.arange(20, dtype=np.uint8) % 10)
    assert checks.balanced(checks.read_idx(path))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ValueError):
        checks.read_idx(path)


def test_a_verify_check_that_does_not_pass_fails_the_run():
    results = [verify.CheckResult("a", True, "ok"), verify.CheckResult("b", False, "off")]
    ctx = Context(tracing.Recorder(), work_dir="", seed=0)
    Verify().check(ctx, {}, results)
    assert ctx.problems == ["verify check did not pass: b,FAIL,off"]
    assert Verify().ops(ctx, results)[:2] == (2, 1)


# ------------------------------------------------------------ metric names


def _round_record(per_layer):
    return {"setup_end": 1.0, "launched": 0.0, "work_end": 3.0, "excluded_s": 0.5,
            "attempted": 4, "op_s": 2.0, "rss_mb": 90.0, "covered_s": 1.9,
            "own_wall_s": 2.0, "per_layer": per_layer}


def test_printed_metrics_are_declared_with_their_units(bench):
    names = [check_name(c) for c in verify.ALL_CHECKS]
    record = _round_record(tracing.per_layer(tracing.Recorder(), names))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        printed = run.compose([record], [1.0], trace)
        declared = {m["name"]: m["unit"] for m in bench[key]}
        assert {n: m["unit"] for n, m in printed.items()} == declared
        assert all(NAME.fullmatch(n) for n in printed)


def test_benchmark_file_follows_its_format(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert set(w["name"] for w in bench["workloads"]) == set(run.WORKLOADS)
    assert 1 <= bench["run_seconds"] <= 60 and 2 <= len(bench["workloads"]) <= 8
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics + bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
               for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


# ------------------------------------------------------------------- spans


def test_self_time_excludes_children_and_check_spans():
    rec = tracing.Recorder()
    rec.spans = [["step", 0.0, 10.0, -1],
                 ["solve", 1.0, 4.0, 0],
                 ["check.residual", 4.0, 6.0, 0],
                 ["inner", 2.0, 3.0, 1],
                 ["check.inner", 3.0, 3.5, 1]]
    net, own = tracing._durations(rec)
    assert net[0] == pytest.approx(7.5) and own[0] == pytest.approx(5.0)
    assert net[1] == pytest.approx(2.5) and own[1] == pytest.approx(1.5)
    assert rec.excluded_s(until=10.0) == pytest.approx(2.5)
