import numpy as np
import pytest

from spfact import (
    Factors,
    balanced_factorization,
    schatten_p_power,
    variational_product,
    variational_sum,
)
from spfact.norms import check_p


def schatten_oracle(X, p):
    # independent path: singular values via the Gram eigenproblem
    w = np.linalg.eigvalsh(X.T @ X)
    s = np.sqrt(np.clip(w, 0.0, None))[::-1]
    if s.size == 0 or s[0] == 0.0:
        return 0.0
    s = s[s > 1e-12 * s[0]]
    return float(np.sum(s**p))


def random_factors(rng, m=7, n=6, d=4):
    return Factors(rng.standard_normal((m, d)), rng.standard_normal((n, d)))


def test_check_p():
    assert check_p(1) == 1.0
    assert check_p(0.3) == 0.3
    for bad in (0.0, -0.1, 1.5, 2):
        with pytest.raises(ValueError):
            check_p(bad)


def test_factors_validation():
    with pytest.raises(ValueError):
        Factors(np.ones((3, 2)), np.ones((4, 3)))
    with pytest.raises(ValueError):
        Factors(np.full((3, 1), np.nan), np.ones((4, 1)))
    with pytest.raises(ValueError, match="at least one column"):
        Factors(np.ones((3, 0)), np.ones((4, 0)))
    F = Factors(np.ones((3, 2)), np.ones((4, 2)))
    assert F.width == 2
    assert F.shape == (3, 4)
    with pytest.raises(ValueError):
        F.U[0, 0] = 5.0  # frozen storage


def test_factors_share_frozen_factors_and_copy_the_rest():
    rng = np.random.default_rng(0)
    U, V = rng.standard_normal((5, 2)), rng.standard_normal((4, 2))
    F = Factors(U, V)
    # a writeable input is copied, so writing to it leaves F unchanged
    assert not np.shares_memory(F.U, U) and not np.shares_memory(F.V, V)
    U[0, 0] += 1.0
    assert F.U[0, 0] != U[0, 0]
    # another instance's frozen factors are shared, not copied
    G = Factors(F.U, F.V)
    assert G.U is F.U and G.V is F.V
    H = Factors(rng.standard_normal((5, 2)), F.V)
    assert np.shares_memory(H.V, F.V) and not np.shares_memory(H.U, F.U)
    # a read-only view of a writeable base is copied: mutating the base
    # leaves the instance unchanged
    base = rng.standard_normal((5, 2))
    view = base.view()
    view.setflags(write=False)
    K = Factors(view, V)
    assert not np.shares_memory(K.U, base)
    base[:] = 0.0
    assert (K.U != 0.0).all()
    for A in (F, G, H, K):
        assert not (A.U.flags.writeable or A.V.flags.writeable)


def test_schatten_p_power_analytic():
    assert schatten_p_power(np.diag([4.0, 1.0]), 0.5) == pytest.approx(3.0)
    assert schatten_p_power(np.zeros((3, 2)), 0.7) == 0.0


def test_schatten_p_power_cross_check():
    rng = np.random.default_rng(0)
    for _ in range(25):
        X = rng.standard_normal((6, 4)) * rng.uniform(0.2, 5)
        v = schatten_p_power(X, 0.7)
        assert v == pytest.approx(schatten_oracle(X, 0.7), rel=1e-9)


def test_schatten_rank_term_count():
    # a rank-2 matrix contributes exactly two terms
    rng = np.random.default_rng(1)
    X = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 6))
    s = np.linalg.svd(X, compute_uv=False)
    expected = s[0] ** 0.4 + s[1] ** 0.4
    assert schatten_p_power(X, 0.4) == pytest.approx(expected, rel=1e-10)
    # p close to zero counts the rank
    assert schatten_p_power(X, 0.01) == pytest.approx(2.0, abs=0.1)


def test_variational_forms_on_balanced_diag():
    F = balanced_factorization(np.diag([4.0, 1.0]), 2)
    assert np.allclose(F.U, np.diag([2.0, 1.0]))
    assert np.allclose(F.V, np.diag([2.0, 1.0]))
    assert variational_product(F, 0.5) == pytest.approx(3.0)
    assert variational_sum(F, 0.5) == pytest.approx(3.0)


def test_variational_zero_columns_contribute_nothing():
    U = np.array([[1.0, 0.0], [0.0, 0.0]])
    V = np.array([[2.0, 0.0], [0.0, 0.0]])
    F = Factors(U, V)
    assert variational_product(F, 0.5) == pytest.approx(2.0**0.5)
    F0 = Factors(np.zeros((2, 2)), np.zeros((2, 2)))
    assert variational_sum(F0, 0.5) == 0.0


def test_lower_bound_chain():
    # schatten(UV^T) <= product form <= sum form for random factors
    rng = np.random.default_rng(2)
    for _ in range(100):
        F = random_factors(rng)
        X = F.matrix()
        for p in (0.3, 0.5, 0.8, 1.0):
            sc = schatten_p_power(X, p)
            pr = variational_product(F, p)
            sm = variational_sum(F, p)
            assert sc <= pr + 1e-10
            assert pr <= sm + 1e-10


def test_product_form_scale_invariance():
    rng = np.random.default_rng(3)
    F = random_factors(rng)
    c = 3.7
    F2 = Factors(F.U * c, F.V / c)
    for p in (0.3, 0.5, 1.0):
        assert abs(variational_product(F, p) - variational_product(F2, p)) <= 1e-12 * (
            1 + variational_product(F, p)
        )


def test_balanced_factorization_attains_equality():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((10, 3))
    B = rng.standard_normal((8, 3))
    X = A @ B.T
    F = balanced_factorization(X, 5)
    assert F.width == 5
    assert np.linalg.norm(F.matrix() - X) <= 1e-9 * np.linalg.norm(X)
    for p in (0.3, 0.5, 1.0):
        target = schatten_p_power(X, p)
        assert variational_sum(F, p) == pytest.approx(target, rel=1e-8)
        assert variational_product(F, p) == pytest.approx(target, rel=1e-8)


def test_balanced_factorization_zero_matrix():
    F = balanced_factorization(np.zeros((3, 4)), 2)
    assert F.width == 2
    assert not F.U.any() and not F.V.any()


def test_balanced_factorization_rejects_small_width():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 6))
    with pytest.raises(ValueError, match="rank"):
        balanced_factorization(X, 2)
    with pytest.raises(ValueError, match="at least 1"):
        balanced_factorization(np.zeros((3, 4)), 0)


def test_nuclear_norm_special_case():
    # at p = 1 the sum form is half the sum of squared column norms
    rng = np.random.default_rng(6)
    F = random_factors(rng)
    expected = 0.5 * (np.linalg.norm(F.U) ** 2 + np.linalg.norm(F.V) ** 2)
    assert variational_sum(F, 1.0) == pytest.approx(expected, rel=1e-12)
    X = F.matrix()
    nuc = np.sum(np.linalg.svd(X, compute_uv=False))
    Fb = balanced_factorization(X, F.width)
    assert variational_sum(Fb, 1.0) == pytest.approx(nuc, rel=1e-9)
