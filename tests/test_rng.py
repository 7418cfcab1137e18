import numpy as np

from geoib.rng import Rng


def test_same_key_same_stream():
    a = Rng(42).normal(100)
    b = Rng(42).normal(100)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(Rng(1).normal(50), Rng(2).normal(50))
    assert not np.array_equal(Rng(1).normal(50), Rng(1, stream=1).normal(50))


def test_substream_independent_of_draw_order():
    # probe s must see the same bits no matter what ran before it
    root = Rng(7)
    root.normal(1000)
    late = root.substream(3).normal(10)
    early = Rng(7).substream(3).normal(10)
    np.testing.assert_array_equal(late, early)


def test_substream_zero_is_not_the_root():
    assert not np.array_equal(Rng(5).normal(20), Rng(5).substream(0).normal(20))


def test_uniform_and_integers_ranges():
    rng = Rng(0)
    u = rng.uniform(2.0, 3.0, 1000)
    assert np.all((2.0 <= u) & (u < 3.0))
    k = rng.integers(0, 4, 1000)
    assert set(np.unique(k)) <= {0, 1, 2, 3}


def test_permutation():
    p = Rng(0).permutation(10)
    assert sorted(p) == list(range(10))


def test_normal_moments():
    """Mean within 3/sqrt(n), variance within 0.02 at n = 1e5 per coordinate."""
    draws = Rng(123).normal((100_000, 4))
    n = draws.shape[0]
    assert np.all(np.abs(draws.mean(axis=0)) < 3.0 / np.sqrt(n))
    assert np.all(np.abs(draws.var(axis=0) - 1.0) < 0.02)
