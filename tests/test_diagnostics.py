import numpy as np
import pytest

from spfact import (
    Factors,
    SolverConfig,
    SynthSpec,
    balanced_factorization,
    factorized_stationarity,
    full_svd,
    gen_synthetic,
    objective,
    solve,
    subgradient_check,
    variational_gap,
)


def canonical_subgradient(X, p):
    U, s, V = full_svd(X)
    r = int(np.sum(s > 1e-12 * s[0]))
    return U[:, :r] @ np.diag(p * s[:r] ** (p - 1.0)) @ V[:, :r].T


def complements(X):
    m, n = X.shape
    U, s, V = full_svd(X)
    r = int(np.sum(s > 1e-12 * s[0]))
    # orthonormal completions of the column/row spaces
    Uf, _ = np.linalg.qr(np.hstack([U[:, :r], np.random.default_rng(0).standard_normal((m, m))]))
    Vf, _ = np.linalg.qr(np.hstack([V[:, :r], np.random.default_rng(1).standard_normal((n, n))]))
    return Uf[:, r:], Vf[:, r:]


def test_membership_diag_example():
    X = np.diag([4.0, 1.0])
    G = canonical_subgradient(X, 0.5)
    assert G[0, 0] == pytest.approx(0.25)
    assert G[1, 1] == pytest.approx(0.5)
    chk = subgradient_check(X, G, 0.5)
    assert chk.member
    assert chk.diag_residual <= 1e-12
    assert chk.offdiag_residual <= 1e-12


def test_offdiagonal_perturbation_rejected():
    X = np.diag([4.0, 1.0])
    U, _, V = full_svd(X)
    G = canonical_subgradient(X, 0.5) + 0.1 * np.outer(U[:, 0], V[:, 1])
    chk = subgradient_check(X, G, 0.5)
    assert not chk.member
    assert chk.offdiag_residual == pytest.approx(0.1, rel=1e-6)


def test_complement_component_is_unconstrained():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((7, 2)) @ rng.standard_normal((2, 6))
    Up, Vp = complements(X)
    for scale in (1e-3, 1.0, 1e3):
        W = Up @ (scale * rng.standard_normal((Up.shape[1], Vp.shape[1]))) @ Vp.T
        chk = subgradient_check(X, canonical_subgradient(X, 0.3) + W, 0.3)
        assert chk.member, f"complement scale {scale} wrongly rejected"


def test_cross_space_component_rejected():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((7, 2)) @ rng.standard_normal((2, 6))
    U, s, V = full_svd(X)
    Up, Vp = complements(X)
    # column-space times complement row-space direction
    G = canonical_subgradient(X, 0.5) + 5e-3 * np.outer(U[:, 0], Vp[:, 0])
    chk = subgradient_check(X, G, 0.5)
    assert not chk.member
    assert chk.offdiag_residual >= 1e-3


def test_membership_invariant_to_svd_conventions():
    # the canonical candidate built from a sign/order-mangled SVD basis is
    # still recognized (distinct singular values)
    rng = np.random.default_rng(4)
    X = rng.standard_normal((6, 5)) @ np.diag([3.0, 1.7, 0.6, 0.2, 0.05]) @ np.linalg.qr(rng.standard_normal((5, 5)))[0]
    U, s, V = full_svd(X)
    signs = np.array([1, -1, 1, -1, 1.0])
    G = (U * signs) @ np.diag(0.5 * s ** (-0.5)) @ (V * signs).T
    chk = subgradient_check(X, G, 0.5)
    assert chk.member


def test_subgradient_check_validation():
    with pytest.raises(ValueError, match="nonzero"):
        subgradient_check(np.zeros((2, 2)), np.eye(2), 0.5)
    with pytest.raises(ValueError, match="shape"):
        subgradient_check(np.eye(2), np.eye(3), 0.5)


def test_variational_gap_balanced_and_unbalanced():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 7))
    Fb = balanced_factorization(X, 4)
    assert variational_gap(Fb, 0.5) <= 1e-8
    assert variational_gap(Fb, 0.5) >= -1e-10
    F_unbal = Factors(2.0 * Fb.U, 0.5 * Fb.V)
    assert variational_gap(F_unbal, 0.5) > 1e-3
    F0 = Factors(np.zeros((8, 2)), np.zeros((7, 2)))
    assert variational_gap(F0, 0.5) == pytest.approx(0.0)


def test_variational_gap_nonnegative_random():
    rng = np.random.default_rng(6)
    for _ in range(50):
        F = Factors(rng.standard_normal((6, 3)), rng.standard_normal((5, 3)))
        for p in (0.3, 0.8, 1.0):
            assert variational_gap(F, p) >= -1e-10


def test_stationarity_of_converged_solve():
    # empirical record on a unit-scale instance: normalized gradient norms
    # settle near conv_tol once excess columns are pruned (the ratio to
    # conv_tol grows with the data's curvature, so this is not a theorem)
    from spfact import ObservedMatrix

    rng = np.random.default_rng(8)
    a = rng.standard_normal(12)
    b = rng.standard_normal(10)
    X = np.outer(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    X = X + 0.005 * rng.standard_normal(X.shape)
    Y = ObservedMatrix.from_dense(X)
    cfg = SolverConfig(
        p=0.5, lam=0.1, init_width=2, seed=0, conv_tol=1e-6, max_iter=8000
    )
    F, rep = solve(Y, cfg)
    assert rep.converged
    st = factorized_stationarity(Y, F, cfg)
    assert st.width == rep.final_width == 1
    print(f"recorded stationarity: grad_U={st.grad_norm_U:.2e} grad_V={st.grad_norm_V:.2e}")
    assert st.grad_norm_U <= 10 * cfg.conv_tol
    assert st.grad_norm_V <= 10 * cfg.conv_tol


def test_stationarity_exact_fit():
    rng = np.random.default_rng(7)
    F = Factors(rng.standard_normal((5, 2)), rng.standard_normal((4, 2)))
    from spfact import ObservedMatrix

    Y = ObservedMatrix.from_dense(F.matrix())
    cfg = SolverConfig(p=0.5, lam=0.0, init_width=2)
    st = factorized_stationarity(Y, F, cfg)
    assert st.grad_norm_U == pytest.approx(0.0, abs=1e-13)
    assert st.grad_norm_V == pytest.approx(0.0, abs=1e-13)


def test_stationarity_random_point_positive():
    rng = np.random.default_rng(8)
    from spfact import ObservedMatrix

    Y = ObservedMatrix.from_dense(rng.standard_normal((5, 4)))
    F = Factors(rng.standard_normal((5, 2)), rng.standard_normal((4, 2)))
    cfg = SolverConfig(p=0.5, lam=0.7, init_width=2)
    st = factorized_stationarity(Y, F, cfg)
    assert st.grad_norm_U > 0 and st.grad_norm_V > 0


def test_rebalanced_solution_certificate():
    # re-balancing a converged solution closes the variational gap without
    # raising the objective
    gt = gen_synthetic(SynthSpec(20, 18, 3, 12.0, 0.35, 9))
    cfg = SolverConfig(p=0.5, lam=1.5, init_width=5, seed=1, conv_tol=1e-6, max_iter=3000)
    F, rep = solve(gt.y_obs, cfg)
    Fb = balanced_factorization(F.matrix(), F.width)
    assert variational_gap(Fb, cfg.p) <= 1e-8
    assert objective(gt.y_obs, Fb, cfg) <= objective(gt.y_obs, F, cfg) + 1e-9


def test_variational_gap_matches_the_dense_product():
    # the factor-core route against the m x n product, on random shapes
    # (m or n below d included), rank-deficient pairs and zero factors
    from spfact.norms import schatten_p_power, variational_sum

    rng = np.random.default_rng(11)
    cases = []
    for _ in range(100):
        m, n, d = (int(k) for k in rng.integers(1, 9, size=3))
        cases.append(Factors(rng.standard_normal((m, d)), rng.standard_normal((n, d))))
    U = rng.standard_normal((7, 2))
    cases.append(Factors(np.hstack([U, U]), rng.standard_normal((5, 4))))
    cases.append(Factors(np.zeros((6, 3)), rng.standard_normal((4, 3))))
    cases.append(Factors(np.zeros((2, 5)), np.zeros((3, 5))))
    for F in cases:
        for p in (0.3, 0.7, 1.0):
            total = variational_sum(F, p)
            dense = total - schatten_p_power(F.matrix(), p)
            assert abs(variational_gap(F, p) - dense) <= 1e-12 * max(total, 1.0)
    assert variational_gap(cases[-1], 0.5) == 0.0


def test_variational_gap_forms_no_m_by_n_matrix():
    import tracemalloc

    rng = np.random.default_rng(12)
    F = Factors(rng.standard_normal((3000, 5)), rng.standard_normal((2000, 5)))
    variational_gap(F, 0.5)  # warm up numpy's lazy allocations
    tracemalloc.start()
    try:
        variational_gap(F, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 3000 x 2000 product alone takes 48 MB; the factors are 200 KB
    assert peak < 1e6
