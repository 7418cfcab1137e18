import numpy as np
import pytest

from geoib.discrete_info import (
    i_projection,
    ib_projection_value,
    kl_discrete,
    kl_to_product,
    marginals,
    mutual_information,
    pythagorean_residual,
    validate_distribution,
    validate_joint,
)
from geoib.rng import Rng
from geoib.verify import _projection_margins, _random_simplex
from geoib.verify import _random_joint as _verify_joint
from oracles import (
    kl_to_product_outer,
    projection_margins_loop,
    pythagorean_residual_by_parts,
)


def _random_joint(rng, nx, nz, sparsity=0.0):
    a = rng.uniform(shape=(nx, nz))
    if sparsity > 0.0:
        a[rng.uniform(shape=(nx, nz)) < sparsity] = 0.0
    if a.sum() == 0.0:
        a[0, 0] = 1.0
    return a / a.sum()


def _random_dist(rng, n):
    a = rng.uniform(shape=n) + 1e-3
    return a / a.sum()


# ------------------------------------------------------------- validation


def test_validate_joint_names_offending_cell():
    bad = np.array([[0.5, 0.6], [-0.1, 0.0]])
    with pytest.raises(ValueError, match=r"cell \(1, 0\)"):
        validate_joint(bad)
    with pytest.raises(ValueError, match="sums to"):
        validate_joint(np.array([[0.5, 0.4]]))
    with pytest.raises(ValueError, match="2-D"):
        validate_joint(np.array([0.5, 0.5]))


def test_validate_distribution_names_offending_index():
    with pytest.raises(ValueError, match="index 2"):
        validate_distribution(np.array([0.6, 0.5, -0.1]))


def test_nan_joint_is_rejected_with_its_cell():
    p = np.array([[0.5, 0.25], [np.nan, 0.25]])
    with pytest.raises(ValueError,
                       match=r"joint has a non-finite entry nan at cell \(1, 0\)"):
        mutual_information(p)


def test_nan_distribution_is_rejected_with_its_index():
    q = np.array([0.5, np.nan, 0.5])
    with pytest.raises(ValueError, match="kl: q has a non-finite entry nan at index 1"):
        kl_discrete(np.array([0.2, 0.3, 0.5]), q)
    with pytest.raises(ValueError, match="non-finite entry inf at index 0"):
        validate_distribution(np.array([np.inf, 0.0]))


def test_nan_in_a_reference_stack_names_its_row():
    p = np.full((2, 2), 0.25)
    qx = np.array([[0.5, 0.5], [np.nan, 1.0], [0.5, 0.5]])
    with pytest.raises(ValueError,
                       match="qx row 1 has a non-finite entry nan at index 0"):
        kl_to_product(p, qx, np.full((3, 2), 0.5))


def test_marginals_sum_rows_and_columns():
    px, pz = marginals(np.array([[0.4, 0.1], [0.2, 0.3]]))
    np.testing.assert_allclose(px, [0.5, 0.5], rtol=0, atol=1e-15)
    np.testing.assert_allclose(pz, [0.6, 0.4], rtol=0, atol=1e-15)


# ------------------------------------------------------------------- kl


def test_kl_discrete_zero_iff_equal():
    p = np.array([0.2, 0.3, 0.5])
    assert kl_discrete(p, p) == 0.0
    q = np.array([0.3, 0.3, 0.4])
    assert kl_discrete(p, q) > 0.0


def test_kl_discrete_support_violation():
    with pytest.raises(ValueError, match="q is zero"):
        kl_discrete(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


def test_kl_discrete_ignores_zero_p_cells():
    # q may vanish wherever p does
    val = kl_discrete(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert val == 0.0


# ------------------------------------------------------------------- mi


def test_mi_perfect_correlation_is_ln2():
    p = np.array([[0.5, 0.0], [0.0, 0.5]])
    assert abs(mutual_information(p) - np.log(2.0)) < 1e-15


def test_mi_independent_is_zero():
    p = np.full((3, 4), 1.0 / 12.0)
    assert abs(mutual_information(p)) < 1e-15


def test_mi_symmetric_under_transposition():
    rng = Rng(0)
    for _ in range(20):
        p = _random_joint(rng, 4, 6, sparsity=0.3)
        assert abs(mutual_information(p) - mutual_information(p.T)) < 1e-13


def test_mi_bounded_by_log_support():
    rng = Rng(1)
    for _ in range(50):
        p = _random_joint(rng, 3, 7)
        mi = mutual_information(p)
        assert -1e-14 <= mi <= min(np.log(3.0), np.log(7.0)) + 1e-12


# ------------------------------------------------------- product distance


def test_kl_to_product_at_marginals_equals_mi():
    rng = Rng(2)
    for _ in range(20):
        p = _random_joint(rng, 5, 4, sparsity=0.2)
        qx, rz = i_projection(p)
        assert abs(kl_to_product(p, qx, rz) - mutual_information(p)) < 1e-13


def test_kl_to_product_support_violation_names_cell():
    p = np.array([[0.5, 0.5], [0.0, 0.0]])
    qx = np.array([0.0, 1.0])
    rz = np.array([0.5, 0.5])
    with pytest.raises(ValueError, match=r"cell \(0, 0\)"):
        kl_to_product(p, qx, rz)


def test_kl_to_product_shape_mismatch():
    p = np.array([[0.5, 0.5]])
    with pytest.raises(ValueError, match="does not match"):
        kl_to_product(p, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="does not match"):
        kl_to_product(p, np.full((3, 2), 0.5), np.full((3, 2), 0.5))


def test_kl_to_product_matches_outer_product_oracle():
    rng = Rng(7)
    for i in range(200):
        p = _verify_joint(rng, with_zeros=(i % 2 == 0))
        qx = _random_simplex(rng, p.shape[0])
        rz = _random_simplex(rng, p.shape[1])
        got = kl_to_product(p, qx, rz)
        assert type(got) is float
        assert got == kl_to_product_outer(p, qx, rz)


def test_stacked_kl_to_product_equals_per_row_calls_bit_for_bit():
    rng = Rng(8)
    for _ in range(40):
        p = _verify_joint(rng, with_zeros=True)
        m = int(rng.integers(1, 30))
        qx = np.stack([_random_simplex(rng, p.shape[0]) for _ in range(m)])
        rz = np.stack([_random_simplex(rng, p.shape[1]) for _ in range(m)])
        got = kl_to_product(p, qx, rz)
        want = np.array([kl_to_product(p, q, r) for q, r in zip(qx, rz)])
        assert got.shape == (m,)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    empty = kl_to_product(p, np.empty((0, p.shape[0])), np.empty((0, p.shape[1])))
    assert empty.shape == (0,)


def test_stacked_kl_to_product_rejects_mismatched_stacks():
    p = np.full((2, 3), 1.0 / 6.0)
    with pytest.raises(ValueError, match="stacks differ in length: 4 qx rows, 3 rz rows"):
        kl_to_product(p, np.full((4, 2), 0.5), np.full((3, 3), 1.0 / 3.0))
    with pytest.raises(ValueError, match="two stacks"):
        kl_to_product(p, np.full((4, 2), 0.5), np.full(3, 1.0 / 3.0))
    with pytest.raises(ValueError, match="two stacks"):
        kl_to_product(p, np.full((1, 4, 2), 0.5), np.full((1, 4, 3), 1.0 / 3.0))


@pytest.mark.parametrize("row, match", [
    ([0.6, -0.1, 0.5], r"rz row 2 has a negative entry -1\.000e-01 at index 1"),
    ([0.6, 0.1, 0.5], r"rz row 2 sums to 1\.2"),
    ([0.0, 0.5, 0.5], r"cell \(0, 0\) where the product reference row 2 is zero"),
], ids=["negative", "unnormalised", "unsupported"])
def test_stacked_kl_to_product_names_the_bad_row(row, match):
    p = np.full((2, 3), 1.0 / 6.0)
    qx = np.full((4, 2), 0.5)
    rz = np.full((4, 3), 1.0 / 3.0)
    rz[2] = row
    with pytest.raises(ValueError, match=match):
        kl_to_product(p, qx, rz)


# ------------------------------------------------------------ projection


def test_i_projection_returns_marginal_pair():
    p = np.array([[0.4, 0.1], [0.2, 0.3]])
    qx, rz = i_projection(p)
    np.testing.assert_allclose(qx, [0.5, 0.5], rtol=0, atol=1e-15)
    np.testing.assert_allclose(rz, [0.6, 0.4], rtol=0, atol=1e-15)


def test_i_projection_beats_perturbed_references():
    """Moving the product reference away from the marginal pair can only
    increase the divergence; checked against renormalized perturbations."""
    rng = Rng(3)
    for _ in range(25):
        p = _random_joint(rng, 4, 5, sparsity=0.2)
        qx, rz = i_projection(p)
        best = kl_to_product(p, qx, rz)
        for _ in range(8):
            dq = qx + 0.05 * rng.uniform(shape=4)
            dr = rz + 0.05 * rng.uniform(shape=5)
            worse = kl_to_product(p, dq / dq.sum(), dr / dr.sum())
            assert worse >= best - 1e-12


def test_pythagorean_residual_small_on_random_tables():
    rng = Rng(4)
    worst = 0.0
    for _ in range(300):
        p = _random_joint(rng, 5, 6, sparsity=0.3)
        qx = _random_dist(rng, 5)
        rz = _random_dist(rng, 6)
        worst = max(worst, abs(pythagorean_residual(p, qx, rz)))
    assert worst < 1e-11


def test_pythagorean_residual_matches_term_by_term_oracle():
    """The draws of verify's check, each residual compared bit for bit."""
    rng = Rng(0, stream=1)
    for i in range(1000):
        p = _verify_joint(rng, with_zeros=(i % 5 == 0))
        qx = _random_simplex(rng, p.shape[0])
        rz = _random_simplex(rng, p.shape[1])
        got = np.float64(pythagorean_residual(p, qx, rz))
        want = np.float64(pythagorean_residual_by_parts(p, qx, rz))
        assert got.view(np.uint64) == want.view(np.uint64), i


def test_pythagorean_residual_exact_structure():
    # decomposition holds for a hand-checkable table and reference
    p = np.array([[0.4, 0.1], [0.2, 0.3]])
    qx = np.array([0.3, 0.7])
    rz = np.array([0.5, 0.5])
    assert abs(pythagorean_residual(p, qx, rz)) < 1e-12
    lhs = kl_to_product(p, qx, rz)
    px, pz = marginals(p)
    rhs = mutual_information(p) + kl_discrete(px, qx) + kl_discrete(pz, rz)
    assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------- ib functional


def test_ib_value_beta_zero_is_negative_prediction_mi():
    rng = Rng(5)
    p_xz = _random_joint(rng, 4, 3)
    p_yz = _random_joint(rng, 2, 3)
    got = ib_projection_value(p_xz, p_yz, 0.0)
    assert abs(got + mutual_information(p_yz)) < 1e-13


def test_ib_value_independent_x_perfect_y():
    # compression term vanishes, prediction term is ln 2, for every beta
    p_xz = np.full((2, 2), 0.25)
    p_yz = np.array([[0.5, 0.0], [0.0, 0.5]])
    for beta in (0.0, 0.5, 1.0, 10.0):
        assert abs(ib_projection_value(p_xz, p_yz, beta) + np.log(2.0)) < 1e-12


def test_ib_value_equals_direct_formula():
    rng = Rng(6)
    for _ in range(10):
        p_xz = _random_joint(rng, 5, 4, sparsity=0.2)
        p_yz = _random_joint(rng, 3, 4, sparsity=0.2)
        beta = 2.0 * float(rng.uniform())
        direct = beta * mutual_information(p_xz) - mutual_information(p_yz)
        assert abs(ib_projection_value(p_xz, p_yz, beta) - direct) < 1e-12


def test_ib_value_rejects_negative_beta():
    p = np.full((2, 2), 0.25)
    with pytest.raises(ValueError, match="nonnegative"):
        ib_projection_value(p, p, -0.1)


# ------------------------------------------------------------------ verify


def test_projection_margins_match_per_perturbation_loop():
    """All 10,000 margins of verify's check, batched against one at a time."""
    got = _projection_margins(0, 50, 200)
    want = projection_margins_loop(0, 50, 200)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
