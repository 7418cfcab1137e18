"""The benchmark in perfbench/ times geoib by patching module attributes
(training.gib_step, verify.draw_probes, ...).  A name it patches that
disappears breaks only benchmark runs, so this installs both hook sets, as
the benchmark's worker does, in a fresh interpreter and drives a tiny run
through them: one narrow, and one wide enough that its input factor is
formed on the run's worker.  It also runs the benchmark's own unit tests."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = """
import sys
import threading
sys.path[:0] = [{perfbench!r}, {src!r}]
import tracing
from geoib import training
from geoib.config import TrainConfig

rec = tracing.Recorder()
tracing.install_light(rec)
tracing.install_full(rec)
# outside the hooks: what run_training hands the hooked step and solve
handed = {{"factors": 0, "input_chol": 0}}
hooked_step, hooked_solve = training.gib_step, training.natural_gradient

def gib_step(*args, **kwargs):
    handed["factors"] += kwargs["factors"] is not None
    return hooked_step(*args, **kwargs)

def natural_gradient(*args, **kwargs):
    handed["input_chol"] += args[0].input_chol is not None
    return hooked_solve(*args, **kwargs)

training.gib_step, training.natural_gradient = gib_step, natural_gradient
threads = threading.active_count()
training.run_training(TrainConfig(epochs=1, k_dim=2, enc_hidden="4",
                                  dataset={dataset!r}))
names = sorted({{span[0] for span in rec.spans}})
print(rec.counts["steps"], rec.counts["failed_steps"], handed["factors"],
      handed["input_chol"], threading.active_count() - threads, " ".join(names))
"""


def _hooked_run(dataset):
    """(steps, failed steps, steps handed the run's factors, solves of a
    state holding the worker's Cholesky factor, threads left over, span
    names) of a hooked run."""
    script = _SCRIPT.format(perfbench=os.path.join(ROOT, "perfbench"),
                            src=os.path.join(ROOT, "src"), dataset=dataset)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *counts, names = proc.stdout.split(maxsplit=5)
    steps, failed, factors, input_factors, threads = map(int, counts)
    assert steps > 0 and failed == 0
    assert threads == 0  # no thread outlives the run
    for name in ("data.make_dataset", "training.run_training.geoib",
                 "training.gib_step", "training.loss_and_grads",
                 "jf.draw_probes", "jf.value_and_grad", "fisher.kfac_update",
                 "fisher.natural_gradient", "training.evaluate_run",
                 "mi.mi_knn", "mi.inversion_probe"):
        assert name in names.split()
    return steps, factors, input_factors


def test_benchmark_hooks_install_and_run():
    _, factors, input_factors = _hooked_run("gauss_mixture:n=200")
    assert factors == input_factors == 0


def test_benchmark_hooks_run_the_input_factor_worker():
    # 784 inputs: every step takes its input factor from the run's worker
    steps, factors, input_factors = _hooked_run("gauss_mixture:n=400,dim=784")
    assert factors == input_factors == steps


def test_the_benchmark_unit_tests_pass():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
