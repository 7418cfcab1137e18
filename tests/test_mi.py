import csv
import os
import re
import sys
import threading

import numpy as np
import pytest
from scipy.special import digamma

from geoib import mi
from geoib.mi import (
    CSV_COLUMNS,
    PROBE_FEATURE_NOISE,
    PROBE_FEATURES,
    InfoPlanePoint,
    classification_accuracy,
    inversion_probe,
    mi_knn,
    point_row,
    read_points_jsonl,
    write_points_csv,
    write_points_jsonl,
)
from geoib.nets import LayerSpec, Network
from geoib.rng import Rng
from oracles import ksg_tree_reference, ridge_probe_reference


def _correlated_pair(rng, n, rho):
    u = rng.normal(n)
    v = rho * u + np.sqrt(1.0 - rho**2) * rng.normal(n)
    return u, v


# ------------------------------------------------------------------- ksg


def test_mi_shuffled_is_near_zero():
    rng = Rng(0)
    x, z = _correlated_pair(rng, 5000, 0.9)
    z = z[rng.permutation(5000)]
    assert abs(mi_knn(x, z)) < 0.05


def test_mi_deterministic_copy_is_large():
    x = Rng(1).normal(5000)
    assert mi_knn(x, x.copy()) > 2.0


def test_mi_gaussian_matches_closed_form():
    # I = -0.5 ln(1 - rho^2) = 0.8304 nats at rho = 0.9
    x, z = _correlated_pair(Rng(2), 10_000, 0.9)
    expect = -0.5 * np.log(1.0 - 0.81)
    assert abs(mi_knn(x, z) - expect) < 0.1


def test_mi_invariant_under_monotone_maps():
    x, z = _correlated_pair(Rng(3), 10_000, 0.8)
    before = mi_knn(x, z)
    after = mi_knn(x**3 + x, np.exp(z))
    assert abs(before - after) < 0.05


def test_mi_symmetric_in_arguments():
    rng = Rng(4)
    x = rng.normal((500, 2))
    z = rng.normal((500, 3)) + 0.5 * x[:, :1]
    assert mi_knn(x, z) == mi_knn(z, x)


def test_mi_handles_duplicate_points():
    # repeated samples force zero k-NN distances; counts drop to zero there
    x = np.repeat(Rng(5).normal(50), 4)
    z = np.repeat(Rng(6).normal(50), 4)
    assert np.isfinite(mi_knn(x, z))


@pytest.mark.parametrize("k", [1, 5])
def test_mi_equals_tree_reference_exactly(k):
    rng = Rng(12)
    n = 300
    u = rng.normal((n, 3))
    grid = np.round(rng.normal((n, 2)) * 2.0)  # integers: many tied distances
    dup = np.repeat(rng.normal((n // 10, 2)), 10, axis=0)  # eps == 0 rows
    cases = [
        (u, u[:, :2] + 0.5 * rng.normal((n, 2))),
        (grid, np.round(grid[:, :1] + rng.normal((n, 1)))),
        (dup, np.repeat(rng.normal(n // 10), 10)),
        (u[:, 0], u[:, 0] ** 3 + 0.3 * rng.normal(n)),
    ]
    for x, z in cases:
        assert mi_knn(x, z, k=k) == ksg_tree_reference(x, z, k=k)


def test_mi_equals_tree_reference_across_many_blocks():
    # 1200 rows give 27-row blocks, so the scan runs over 45 of them
    rng = Rng(13)
    x = rng.normal((1200, 40))
    z = np.round(x[:, :4] + rng.normal((1200, 4)), 1)
    assert mi_knn(x, z) == ksg_tree_reference(x, z)


def test_the_kernel_gives_the_bits_of_cdists_chebyshev():
    from scipy.spatial.distance import cdist

    rng = Rng(17)
    a = rng.normal((30, 7))
    b = np.round(rng.normal((45, 7)), 1)
    got = mi._chebyshev_kernel()(a, b)
    assert np.array_equal(got.view(np.uint64),
                          cdist(a, b, "chebyshev").view(np.uint64))


def _use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(mi, "_usable_cpus", lambda: cpus)


def test_usable_cpus_without_affinity_counts_every_cpu(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert mi._usable_cpus() == (os.cpu_count() or 1)
    test_mi_equals_tree_reference_across_many_blocks()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_tree_reference_tests_hold_at_any_cpu_count(cpus, monkeypatch):
    _use_cpus(monkeypatch, cpus)
    for k in (1, 5):
        test_mi_equals_tree_reference_exactly(k)
    test_mi_equals_tree_reference_across_many_blocks()


def _many_block_pair():
    # 1200 rows give 27-row blocks, 45 of them
    rng = Rng(13)
    x = rng.normal((1200, 40))
    return x, np.round(x[:, :4] + rng.normal((1200, 4)), 1)


def _recording_kernel(monkeypatch, fail_at=None):
    """Patch mi_knn's kernel to log the running thread count and thread of
    each call, and to raise on the block whose x rows start at `fail_at`."""
    kernel = mi._chebyshev_kernel()
    calls = []

    def recording(a, b):
        calls.append((threading.active_count(), threading.get_ident()))
        if fail_at is not None and a.__array_interface__["data"][0] == fail_at:
            raise ArithmeticError("kernel fault")
        return kernel(a, b)

    monkeypatch.setattr(mi, "_chebyshev_kernel", lambda: recording)
    return calls


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_mi_scan_runs_one_thread_per_cpu_and_leaves_none(cpus, monkeypatch):
    x, z = _many_block_pair()
    want = mi_knn(x, z)
    _use_cpus(monkeypatch, cpus)
    calls = _recording_kernel(monkeypatch)
    before = set(threading.enumerate())
    assert mi_knn(x, z) == want
    assert set(threading.enumerate()) == before
    assert len(calls) == 2 * 45
    if cpus == 1:
        assert max(count for count, _ in calls) == len(before)
    else:
        # the caller runs one share; every share has blocks to scan
        threads = {ident for _, ident in calls}
        assert threading.get_ident() in threads and len(threads) > 1


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("block", [0, 1, 44])
def test_mi_scan_raises_a_kernel_error_and_leaves_no_thread(cpus, block,
                                                            monkeypatch):
    # block 0 is the caller's share; 1 and 44 fall to a worker's share at
    # some cpu counts
    x, z = _many_block_pair()
    _use_cpus(monkeypatch, cpus)
    calls = _recording_kernel(
        monkeypatch, fail_at=x[27 * block:].__array_interface__["data"][0])
    before = set(threading.enumerate())
    with pytest.raises(ArithmeticError, match="kernel fault"):
        mi_knn(x, z)
    assert set(threading.enumerate()) == before
    if cpus == 1:
        assert max(count for count, _ in calls) == len(before)


def test_mi_scan_with_more_threads_than_cores_and_fast_switching(monkeypatch):
    # the shares write disjoint rows of the same arrays; a lost or crossed
    # write would change the estimate
    x, z = _many_block_pair()
    want = ksg_tree_reference(x, z)
    _use_cpus(monkeypatch, 2 * (os.cpu_count() or 1) + 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert mi_knn(x, z) == want
    finally:
        sys.setswitchinterval(interval)


def test_digamma_port_equals_scipy_bit_for_bit():
    m = np.arange(1, 2**20 + 1)
    got = mi._digamma_counts(m)
    assert np.array_equal(got.view(np.uint64), digamma(m).view(np.uint64))
    # mi_knn's k and n arrive as Python ints
    for v in [*range(1, 65), 299, 300, 1200, 2000, 5000, 2**20]:
        assert (np.float64(mi._digamma(v)).view(np.uint64)
                == np.float64(digamma(v)).view(np.uint64)), v


def test_digamma_counts_repeat_each_distinct_value():
    counts = np.array([7, 3, 3, 120, 7, 1])
    assert np.array_equal(mi._digamma_counts(counts), digamma(counts))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mi_rejects_non_finite_input(bad):
    x = Rng(14).normal((20, 2))
    z = Rng(15).normal((20, 2))
    xb = x.copy()
    xb[3, 1] = bad
    zb = z.copy()
    zb[7, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        mi_knn(xb, z)
    with pytest.raises(ValueError, match="finite"):
        mi_knn(x, zb)


def test_mi_validates_inputs():
    with pytest.raises(ValueError, match="rows"):
        mi_knn(np.zeros(10), np.zeros(11))
    with pytest.raises(ValueError, match="k must satisfy"):
        mi_knn(np.zeros(4), np.zeros(4), k=4)
    with pytest.raises(ValueError, match="1-D or 2-D"):
        mi_knn(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))


# -------------------------------------------------------------- accuracy


def test_accuracy_constant_decoder_hits_majority():
    # zero weights: logits all equal, argmax breaks to class 0
    dec = Network([LayerSpec(2, 3, "identity")])
    labels = np.array([0, 0, 0, 1, 2])
    acc = classification_accuracy(dec, np.ones((5, 2)), labels)
    assert acc == 0.6


def test_accuracy_random_decoder_near_chance():
    rng = Rng(7)
    dec = Network([LayerSpec(4, 10, "identity")], Rng(8))
    z = rng.normal((2000, 4))
    labels = np.arange(2000) % 10
    acc = classification_accuracy(dec, z, labels)
    assert abs(acc - 0.1) < 0.05


def test_accuracy_perfect_decoder():
    dec = Network([LayerSpec(2, 2, "identity")])
    dec.blocks[0][:, :-1] = np.eye(2)
    z = np.array([[3.0, 0.0], [0.0, 3.0], [5.0, 1.0]])
    assert classification_accuracy(dec, z, np.array([0, 1, 0])) == 1.0


# ----------------------------------------------------------------- probe


def test_probe_inverts_identity_representation():
    rng = Rng(9)
    x_tr = rng.normal((1000, 2))
    x_te = rng.normal((300, 2))
    mse = inversion_probe(x_tr, x_tr, x_te, x_te)
    assert mse < 0.01


def test_probe_resolves_codes_above_its_noise_floor():
    # a code that barely varies stays hard to invert; one 100x larger inverts
    rng = Rng(9)
    x_tr = rng.normal((1000, 2))
    x_te = rng.normal((300, 2))
    var = float(np.mean(x_te**2))
    tiny = inversion_probe(1e-3 * x_tr, x_tr, 1e-3 * x_te, x_te)
    small = inversion_probe(0.1 * x_tr, x_tr, 0.1 * x_te, x_te)
    assert tiny >= 0.5 * var
    assert small < 0.01


def test_probe_on_pure_noise_matches_variance():
    # nothing to learn: best prediction is the mean, MSE = Var(x)
    rng = Rng(10)
    x_tr = rng.normal((1500, 2))
    x_te = rng.normal((500, 2))
    z_tr = rng.normal((1500, 3))
    z_te = rng.normal((500, 3))
    mse = inversion_probe(z_tr, x_tr, z_te, x_te)
    var = float(np.mean(x_te**2))
    assert abs(mse - var) < 0.1 * var


def test_probe_deterministic_per_seed():
    rng = Rng(11)
    z = rng.normal((200, 2))
    x = rng.normal((200, 2))
    a = inversion_probe(z[:150], x[:150], z[150:], x[150:], seed=3)
    b = inversion_probe(z[:150], x[:150], z[150:], x[150:], seed=3)
    assert a == b


def test_probe_matches_dense_reference_across_many_blocks():
    # 2000 train rows of 257 features give 127-row blocks, 16 of them
    rng = Rng(16)
    z = rng.normal((2400, 3))
    x = np.hstack([np.sin(z[:, :2]), z[:, 2:] ** 2]) + 0.1 * rng.normal((2400, 3))
    draw = Rng(5)
    w = draw.normal((3, PROBE_FEATURES)) / np.sqrt(3)
    b = draw.normal(PROBE_FEATURES)
    got = inversion_probe(z[:2000], x[:2000], z[2000:], x[2000:], seed=5)
    want = ridge_probe_reference(z[:2000], x[:2000], z[2000:], x[2000:], w, b,
                                 PROBE_FEATURE_NOISE)
    assert abs(got - want) <= 1e-10 * want


def test_probe_validates_pairing():
    with pytest.raises(ValueError, match="row-for-row"):
        inversion_probe(np.zeros((5, 2)), np.zeros((4, 2)),
                        np.zeros((2, 2)), np.zeros((2, 2)))


# --------------------------------------------------------------- records


def test_point_validation():
    with pytest.raises(ValueError, match="finite"):
        InfoPlanePoint(beta=np.nan, k_dim=2, accuracy=0.5, mi_xz_nats=0.1,
                       inversion_mse=0.1, seed=0, wall_clock_s=1.0)
    with pytest.raises(ValueError, match="k_dim"):
        InfoPlanePoint(beta=0.1, k_dim=0, accuracy=0.5, mi_xz_nats=0.1,
                       inversion_mse=0.1, seed=0, wall_clock_s=1.0)


def _points():
    return [
        InfoPlanePoint(beta=1e-4, k_dim=8, accuracy=0.97, mi_xz_nats=1.41,
                       inversion_mse=0.016, seed=0, wall_clock_s=4.2),
        InfoPlanePoint(beta=10.0, k_dim=8, accuracy=0.25, mi_xz_nats=0.0,
                       inversion_mse=0.05, seed=1, wall_clock_s=3.9),
    ]


def test_csv_round_trip(tmp_path):
    path = tmp_path / "plane.csv"
    pts = _points()
    write_points_csv(pts, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [list(CSV_COLUMNS)] + [point_row(p) for p in pts]
    for orig, row in zip(pts, rows[1:]):
        for name, text in zip(CSV_COLUMNS, row):
            value = getattr(orig, name)
            assert type(value)(text) == value


def test_jsonl_round_trip_keeps_estimator_metadata(tmp_path):
    path = tmp_path / "plane.jsonl"
    pts = _points()
    write_points_jsonl(pts, path)
    back = read_points_jsonl(path)
    assert back == pts
    assert back[0].mi_estimator == "ksg"
    assert back[0].mi_k == 5


@pytest.mark.parametrize("line", ['{"beta": 0.0001}', "[1, 2]", '{"beta": 0.1',
                                  '{"nope": 1}'],
                         ids=["other_fields", "not_an_object", "cut", "unknown"])
def test_jsonl_names_the_file_and_line_it_cannot_read(tmp_path, line):
    path = tmp_path / "plane.jsonl"
    write_points_jsonl(_points()[:1], path)
    with open(path, "a") as fh:
        fh.write("\n" + line + "\n")  # a blank line 2, then line 3
    with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: ")):
        read_points_jsonl(path)
