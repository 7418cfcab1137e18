"""
IDX files to trained classifier, end to end
===========================================

Materialize a rendered-digit corpus in the MNIST IDX layout, poke at the
raw bytes, then train a small bottleneck classifier on it.  The corpus is
synthetic (procedurally drawn glyphs with jitter), so everything runs
offline and deterministically.
"""

import os
import tempfile

import numpy as np

from geoib.config import TrainConfig
from geoib.data import load_idx, read_idx, write_digit_corpus
from geoib.mi import classification_accuracy
from geoib.training import posterior_means, run_training

# The corpus lives as long as `corpus` does and is removed at exit.
corpus = tempfile.TemporaryDirectory(prefix="digits_")
work = corpus.name

# --- write the corpus -----------------------------------------------------

write_digit_corpus(work, n_train=2000, n_test=400, seed=0)
print("corpus files:", sorted(os.listdir(work)))

# --- the IDX format at byte level -----------------------------------------

images = read_idx(os.path.join(work, "train-images-idx3-ubyte"))
labels = read_idx(os.path.join(work, "train-labels-idx1-ubyte"))
print(f"\nimages: shape {images.shape}, dtype {images.dtype},"
      f" ink range [{images.min()}, {images.max()}]")
print(f"labels: first ten {labels[:10].tolist()}")

# A crude terminal render of the first training image:
glyph = images[0]
for row in glyph[::2]:
    print("".join(" .x#"[min(v // 64, 3)] for v in row[::1]))
print(f"(label {labels[0]})")

# --- loading gives a ready DatasetHandle ----------------------------------

ds = load_idx(work)
print(f"\nsplits: train={ds.train_idx.size} val={ds.val_idx.size}"
      f" test={ds.test_idx.size}, features={ds.n_features},"
      f" classes={ds.n_classes}")

# --- train a small bottleneck on it ---------------------------------------

cfg = TrainConfig(beta=1e-4, k_dim=16, epochs=4, dataset=f"idx:path={work}")
res = run_training(cfg, evaluate=False)
x_te, y_te = res.dataset.split("test")
acc = classification_accuracy(
    res.dec, posterior_means(res.enc, x_te, cfg.k_dim), y_te)
print(f"\ntest accuracy after {cfg.epochs} epochs: {acc:.3f}")
