"""Spectral kernels: full SVD and the dominant singular pair.

Everything downstream (norm evaluation, balanced factorizations, the
rank-one escape step) goes through these two routines, so their sign and
ordering conventions are fixed here once: singular values sorted
descending, and the first nonzero entry of every left singular vector
made nonnegative (right vector flipped along with it).

full_svd works on dense matrices. top_singular_pair touches its input only
through matvecs, so it also takes a scipy sparse matrix: each power step
then costs O(nnz) and no dense m x n array is formed.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Fixed seed for the power-iteration start vector. A deterministic start
# keeps whole solves bit-reproducible for a given input.
_POWER_SEED = 7340032


def _as_finite_matrix(X, name="matrix"):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return X


def _as_finite_operator(X, name="matrix"):
    # Dense input as in _as_finite_matrix; sparse input as float CSR, with
    # the finiteness check on its stored values.
    if not sp.issparse(X):
        return _as_finite_matrix(X, name)
    X = sp.csr_matrix(X, dtype=float)
    if not np.isfinite(X.data).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return X


def _fix_column_signs(U, V):
    # First nonzero entry of each column of U made nonnegative; the paired
    # column of V flips with it so the product is unchanged.
    for i in range(U.shape[1]):
        col = U[:, i]
        nz = np.flatnonzero(col)
        if nz.size and col[nz[0]] < 0:
            U[:, i] = -col
            V[:, i] = -V[:, i]


@dataclass(frozen=True)
class SpectralTriple:
    """Dominant singular triple (sigma, u, v) with unit u, v."""

    sigma: float
    u: np.ndarray
    v: np.ndarray
    converged: bool = True


def full_svd(X):
    """Economy SVD of a dense matrix.

    Returns (U, s, V) with X = U @ diag(s) @ V.T, s sorted descending and
    nonnegative, and orthonormal columns in U and V. Rejects non-finite
    input.
    """
    X = _as_finite_matrix(X)
    U, s, Vh = np.linalg.svd(X, full_matrices=False)
    U = np.ascontiguousarray(U)
    V = np.ascontiguousarray(Vh.T)
    _fix_column_signs(U, V)
    return U, s, V


def top_singular_pair(X, tol=1e-9, max_iter=10000):
    """Dominant singular triple of X by alternating power iteration.

    Iterates v <- X.T u / |X.T u|, u <- X v / |X v| from a fixed seeded
    random start, declaring convergence when the cross residual
    |X.T u - sigma v| falls below tol * sigma. If max_iter is exhausted
    first, the best iterate is returned with converged=False.

    X is a dense array or a scipy sparse matrix. A sparse X is applied
    through CSR matvecs of X and of a transposed CSR built once, so each
    step costs O(nnz).
    """
    X = _as_finite_operator(X)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    m, n = X.shape
    if sp.issparse(X):
        Xt = X.T.tocsr()
        nonzero = X.data.any()
    else:
        Xt = X.T
        nonzero = X.any()

    rng = np.random.default_rng(_POWER_SEED)
    if not nonzero:
        u = np.zeros(m)
        v = np.zeros(n)
        u[0] = 1.0
        v[0] = 1.0
        return SpectralTriple(0.0, u, v, True)

    u = rng.standard_normal(m)
    u /= np.linalg.norm(u)
    sigma = 0.0
    v = None
    converged = False
    for _ in range(max_iter):
        w = Xt @ u
        if v is not None and np.linalg.norm(w - sigma * v) <= tol * sigma:
            converged = True
            break
        nw = np.linalg.norm(w)
        if nw == 0.0:
            # start vector fell in the null space of X.T; redraw
            u = rng.standard_normal(m)
            u /= np.linalg.norm(u)
            continue
        v = w / nw
        z = X @ v
        sigma = np.linalg.norm(z)
        u = z / sigma

    u = u.copy()
    v = v.copy()
    nz = np.flatnonzero(u)
    if nz.size and u[nz[0]] < 0:
        u = -u
        v = -v
    return SpectralTriple(float(sigma), u, v, converged)
