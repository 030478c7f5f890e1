import numpy as np
import pytest
import scipy.sparse as sp

from spfact import full_svd
from spfact.spectral import top_singular_pair


def test_full_svd_diagonal():
    U, s, V = full_svd(np.diag([4.0, 1.0]))
    assert np.allclose(s, [4.0, 1.0])
    assert np.allclose(U, np.eye(2))
    assert np.allclose(V, np.eye(2))


def test_full_svd_zero_matrix():
    _, s, _ = full_svd(np.zeros((3, 2)))
    assert s.shape == (2,)
    assert np.all(s == 0.0)


def test_full_svd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 4))
    U, s, V = full_svd(X)
    assert np.linalg.norm(X - U @ np.diag(s) @ V.T) <= 1e-9 * max(
        1.0, np.linalg.norm(X)
    )
    assert np.linalg.norm(U.T @ U - np.eye(4)) <= 1e-9
    assert np.linalg.norm(V.T @ V - np.eye(4)) <= 1e-9
    assert np.all(np.diff(s) <= 0)
    assert np.all(s >= 0)


def test_full_svd_sign_convention():
    rng = np.random.default_rng(1)
    for _ in range(20):
        X = rng.standard_normal((5, 5))
        U, _, _ = full_svd(X)
        for i in range(U.shape[1]):
            nz = np.flatnonzero(U[:, i])
            if nz.size:
                assert U[nz[0], i] > 0


def test_full_svd_rejects_nonfinite():
    X = np.ones((2, 2))
    X[0, 1] = np.nan
    with pytest.raises(ValueError, match="NaN or Inf"):
        full_svd(X)
    X[0, 1] = np.inf
    with pytest.raises(ValueError):
        full_svd(X)


def test_full_svd_rejects_a_non_2d_input():
    for X in (np.ones(3), np.ones((2, 2, 2)), 1.0):
        with pytest.raises(ValueError, match="2-dimensional"):
            full_svd(X)


def test_frobenius_identity():
    # sum of squared singular values equals the squared Frobenius norm
    rng = np.random.default_rng(2)
    for _ in range(20):
        m, n = rng.integers(2, 12, size=2)
        X = rng.standard_normal((m, n)) * rng.uniform(0.1, 10)
        _, s, _ = full_svd(X)
        f2 = np.linalg.norm(X) ** 2
        assert abs(np.sum(s**2) - f2) <= 1e-8 * max(1.0, f2)


def test_singular_values_permutation_invariant():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((7, 5))
    _, s, _ = full_svd(X)
    pr = rng.permutation(7)
    pc = rng.permutation(5)
    _, s2, _ = full_svd(X[pr][:, pc])
    assert np.max(np.abs(s - s2)) <= 1e-10 * max(1.0, s[0])


def test_top_pair_diagonal():
    t = top_singular_pair(np.diag([4.0, 1.0]), tol=1e-12, max_iter=2000)
    assert t.converged
    assert abs(t.sigma - 4.0) <= 1e-10
    assert np.allclose(np.abs(t.u), [1.0, 0.0], atol=1e-6)
    assert np.allclose(np.abs(t.v), [1.0, 0.0], atol=1e-6)
    assert t.u[0] > 0  # sign convention


def test_top_pair_zero_matrix():
    t = top_singular_pair(np.zeros((3, 4)), tol=1e-10, max_iter=10)
    assert t.converged
    assert t.sigma == 0.0
    assert abs(np.linalg.norm(t.u) - 1.0) <= 1e-12
    assert abs(np.linalg.norm(t.v) - 1.0) <= 1e-12


def test_top_pair_matches_full_svd():
    rng = np.random.default_rng(4)
    tol = 1e-8
    for _ in range(100):
        m, n = rng.integers(3, 12, size=2)
        X = rng.standard_normal((m, n))
        t = top_singular_pair(X, tol=tol, max_iter=50000)
        _, s, _ = full_svd(X)
        assert t.converged
        assert abs(t.sigma - s[0]) <= tol * s[0]


def test_top_pair_triple_consistency():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((8, 5))
    t = top_singular_pair(X, tol=1e-10, max_iter=50000)
    assert np.linalg.norm(X @ t.v - t.sigma * t.u) <= 1e-8 * t.sigma
    assert np.linalg.norm(X.T @ t.u - t.sigma * t.v) <= 1e-8 * t.sigma


def test_top_pair_nonconverged_flag():
    rng = np.random.default_rng(6)
    # clustered spectrum so one iteration is nowhere near convergence
    Q = np.linalg.qr(rng.standard_normal((20, 20)))[0]
    X = Q @ np.diag(np.linspace(1.0, 0.999, 20)) @ Q.T
    t = top_singular_pair(X, tol=1e-12, max_iter=2)
    assert not t.converged
    assert t.sigma > 0


def test_top_pair_validates_arguments():
    with pytest.raises(ValueError):
        top_singular_pair(np.eye(2), tol=0.0, max_iter=10)
    with pytest.raises(ValueError):
        top_singular_pair(np.eye(2), tol=1e-8, max_iter=0)
    with pytest.raises(ValueError):
        top_singular_pair(np.array([[np.inf, 0.0], [0.0, 1.0]]), tol=1e-8, max_iter=10)


def test_top_pair_sparse_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(30):
        m, n = rng.integers(2, 40, size=2)
        X = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.3)
        d = top_singular_pair(X, tol=1e-12, max_iter=50000)
        s = top_singular_pair(sp.csr_matrix(X), tol=1e-12, max_iter=50000)
        assert s.converged and d.converged
        # a dense input runs as its CSR, so the triples agree bit for bit
        assert s.sigma == d.sigma
        assert np.array_equal(s.u, d.u)
        assert np.array_equal(s.v, d.v)


def test_top_pair_sparse_zero_matrix():
    # an all-zero pattern and one that stores explicit zeros both take the
    # zero shortcut of the dense call
    stored_zeros = sp.csr_matrix((np.zeros(2), ([0, 1], [1, 2])), shape=(3, 4))
    assert stored_zeros.nnz == 2
    d = top_singular_pair(np.zeros((3, 4)), tol=1e-10, max_iter=10)
    for X in (sp.csr_matrix((3, 4)), stored_zeros):
        t = top_singular_pair(X, tol=1e-10, max_iter=10)
        assert t.converged
        assert t.sigma == 0.0
        assert np.array_equal(t.u, d.u)
        assert np.array_equal(t.v, d.v)


def test_top_pair_sparse_nonconverged_flag():
    rng = np.random.default_rng(6)
    Q = np.linalg.qr(rng.standard_normal((20, 20)))[0]
    X = Q @ np.diag(np.linspace(1.0, 0.999, 20)) @ Q.T
    d = top_singular_pair(X, tol=1e-12, max_iter=2)
    t = top_singular_pair(sp.csr_matrix(X), tol=1e-12, max_iter=2)
    assert not t.converged
    assert abs(t.sigma - d.sigma) <= 1e-9 * d.sigma


def test_top_pair_sparse_rejects_nonfinite():
    for bad in (np.nan, np.inf):
        X = sp.csr_matrix(np.eye(3))
        X.data[1] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            top_singular_pair(X, tol=1e-8, max_iter=10)


def _with_spectrum(rng, m, n, s):
    Qa = np.linalg.qr(rng.standard_normal((m, len(s))))[0]
    Qb = np.linalg.qr(rng.standard_normal((n, len(s))))[0]
    return (Qa * s) @ Qb.T, Qa[:, 0], Qb[:, 0]


def test_top_pair_clustered_spectrum_converges_fast():
    # top gap 0.2% over a flat tail: plain power iteration needs about
    # 4.2k steps here, restarted Lanczos about 60 matvec pairs
    rng = np.random.default_rng(8)
    s = np.concatenate([[1.0], np.linspace(0.998, 0.95, 79)])
    X, a, b = _with_spectrum(rng, 120, 80, s)
    for A in (X, sp.csr_matrix(X)):
        t = top_singular_pair(A, tol=1e-10, max_iter=400)
        assert t.converged
        assert abs(t.sigma - 1.0) <= 1e-12
        assert abs(abs(t.u @ a) - 1.0) <= 1e-9
        assert abs(abs(t.v @ b) - 1.0) <= 1e-9
        assert np.linalg.norm(X.T @ t.u - t.sigma * t.v) <= 1e-10 * t.sigma


def test_top_pair_single_row_and_column():
    rng = np.random.default_rng(9)
    for shape in ((1, 7), (9, 1), (1, 1)):
        X = rng.standard_normal(shape)
        U, s, V = full_svd(X)
        for A in (X, sp.csr_matrix(X)):
            t = top_singular_pair(A, tol=1e-10, max_iter=400)
            assert t.converged
            assert abs(t.sigma - s[0]) <= 1e-12 * s[0]
            assert np.allclose(t.u, U[:, 0], atol=1e-12)
            assert np.allclose(t.v, V[:, 0], atol=1e-12)


def test_top_pair_exact_rank_one_breaks_down():
    # X.T u_1 lies in the span of v_0, so the first cycle stops at a
    # breakdown after two matvec pairs and the third pair accepts the pair;
    # a cycle that went on would spend the third pair inside itself
    rng = np.random.default_rng(10)
    a = rng.standard_normal(50)
    b = rng.standard_normal(30)
    X = np.outer(a, b)
    for A in (X, sp.csr_matrix(X)):
        t = top_singular_pair(A, tol=1e-10, max_iter=3)
        assert t.converged
        sigma = np.linalg.norm(a) * np.linalg.norm(b)
        assert abs(t.sigma - sigma) <= 1e-12 * sigma
        assert np.allclose(t.u, np.sign(a[0]) * a / np.linalg.norm(a), atol=1e-12)
        assert np.allclose(t.v, np.sign(a[0]) * b / np.linalg.norm(b), atol=1e-12)


def test_top_pair_bit_identical_repeats():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((70, 50)) * (rng.random((70, 50)) < 0.2)
    for A in (X, sp.csr_matrix(X)):
        for max_iter in (5, 10000):
            t1 = top_singular_pair(A, tol=1e-10, max_iter=max_iter)
            t2 = top_singular_pair(A, tol=1e-10, max_iter=max_iter)
            assert t1.sigma == t2.sigma and t1.converged == t2.converged
            assert np.array_equal(t1.u, t2.u) and np.array_equal(t1.v, t2.v)


def test_top_pair_matches_full_svd_with_restarts():
    # sizes above the basis of one cycle, so the pair comes out of restarts
    rng = np.random.default_rng(12)
    for _ in range(20):
        m, n = rng.integers(25, 90, size=2)
        X = rng.standard_normal((m, n)) * (rng.random((m, n)) < rng.uniform(0.1, 1.0))
        U, s, V = full_svd(X)
        if s[1] > (1.0 - 1e-3) * s[0]:
            continue  # top vectors ill-determined
        for A in (X, sp.csr_matrix(X)):
            t = top_singular_pair(A, tol=1e-10, max_iter=20000)
            assert t.converged
            assert abs(t.sigma - s[0]) <= 1e-12 * s[0]
            assert np.allclose(t.u, U[:, 0], atol=1e-7)
            assert np.allclose(t.v, V[:, 0], atol=1e-7)
