"""The benchmark in perfbench/ times geoib by patching module attributes
(training.gib_step, verify.draw_probes, ...).  A name it patches that
disappears breaks only benchmark runs, so this installs both hook sets, as
the benchmark's worker does, in a fresh interpreter and drives a tiny run
through them: one narrow, and one wide enough that the encoder's input
layer is solved in batch space, whose factor the hook's residual check
reads through `KfacState.a_factors`.  It also runs the benchmark's own
unit tests."""

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
threads = threading.active_count()
training.run_training(TrainConfig(epochs=1, k_dim=2, enc_hidden="4",
                                  dataset={dataset!r}))
names = sorted({{span[0] for span in rec.spans}})
print(rec.counts["steps"], rec.counts["failed_steps"],
      threading.active_count() - threads, " ".join(names))
"""


def _hooked_run(dataset):
    """(steps, failed steps, threads left over, span names) of a hooked
    run."""
    script = _SCRIPT.format(perfbench=os.path.join(ROOT, "perfbench"),
                            src=os.path.join(ROOT, "src"), dataset=dataset)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *counts, names = proc.stdout.split(maxsplit=3)
    steps, failed, threads = map(int, counts)
    assert steps > 0
    for name in ("data.make_dataset", "training.run_training.geoib",
                 "training.gib_step", "training.loss_and_grads",
                 "jf.draw_probes", "jf.value_and_grad", "fisher.kfac_update",
                 "fisher.natural_gradient", "training.evaluate_run",
                 "mi.mi_knn", "mi.inversion_probe"):
        assert name in names.split()
    return steps, failed, threads


def test_benchmark_hooks_install_and_run():
    _, failed, threads = _hooked_run("gauss_mixture:n=200")
    assert failed == 0 and threads == 0


def test_the_hooks_residual_check_passes_every_batch_space_solve():
    # 784 inputs: every encoder solve works from the batch's rows, and the
    # hook's check forms layer 0's factor from them
    steps, failed, threads = _hooked_run("gauss_mixture:n=400,dim=784")
    assert steps == 3 and failed == 0
    assert threads == 0  # the run starts no thread that outlives it


def test_the_benchmark_unit_tests_pass():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
