"""The benchmark in perfbench/ times geoib by patching module attributes
(training.gib_step, verify.draw_probes, ...).  A name it patches that
disappears breaks only benchmark runs, so this installs both hook sets, as
the benchmark's worker does, in a fresh interpreter and drives a tiny run
through them."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import tracing
from geoib import training
from geoib.config import TrainConfig

rec = tracing.Recorder()
tracing.install_light(rec)
tracing.install_full(rec)
training.run_training(TrainConfig(epochs=1, k_dim=2, enc_hidden="4",
                                  dataset="gauss_mixture:n=200"))
names = sorted({{span[0] for span in rec.spans}})
print(rec.counts["steps"], rec.counts["failed_steps"], " ".join(names))
"""


def test_benchmark_hooks_install_and_run():
    script = _SCRIPT.format(perfbench=os.path.join(ROOT, "perfbench"),
                            src=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps, failed, names = proc.stdout.split(maxsplit=2)
    assert int(steps) > 0 and int(failed) == 0
    for name in ("training.run_training.geoib", "training.gib_step",
                 "training.loss_and_grads", "jf.draw_probes",
                 "fisher.natural_gradient", "training.evaluate_run", "mi.mi_knn"):
        assert name in names.split()
