"""Spectral kernels: full SVD and the dominant singular pair.

Everything downstream (norm evaluation, balanced factorizations, the
rank-one escape step) goes through these two routines, so their sign and
ordering conventions are fixed here once: singular values sorted
descending, and the first nonzero entry of every left singular vector
made nonnegative (right vector flipped along with it).

full_svd works on dense matrices. top_singular_pair applies its input, dense
or scipy sparse, only through matvecs of its float CSR: each matvec pair
then costs O(nnz) and no dense m x n array is formed. It runs restarted
Golub-Kahan-Lanczos bidiagonalization, whose convergence is governed by
the square root of the relative gap sigma_1/sigma_2 - 1 where plain power
iteration is governed by the gap itself; on a residual whose top two
singular values differ by 0.2% that is about 200 matvec pairs against
about 4,500 power steps.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Fixed seed for the Lanczos start vector. A deterministic start keeps
# whole solves bit-reproducible for a given input.
_POWER_SEED = 7340032
# Right vectors per Lanczos restart cycle; the two bases take
# (m + n) * _BASIS floats.
_BASIS = 20
# A new Lanczos vector whose norm after reorthogonalization is at most this
# fraction of its norm before lies in the span of the basis (breakdown).
_BREAKDOWN = 1e-12


def _as_finite_matrix(X, name="matrix"):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return X


def _as_finite_operator(X, name="matrix"):
    # Any input as float CSR, with the finiteness check on its stored
    # values; a dense input is first checked as in _as_finite_matrix.
    if not sp.issparse(X):
        X = _as_finite_matrix(X, name)
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


def _orthogonalize(w, Q):
    # Two passes of classical Gram-Schmidt against the rows of Q.
    for _ in range(2):
        w -= (Q @ w) @ Q
    return w


def top_singular_pair(X, tol, max_iter):
    """Dominant singular triple of X by restarted Lanczos bidiagonalization.

    From a fixed seeded random unit u, Golub-Kahan-Lanczos bidiagonalization
    with full reorthogonalization builds orthonormal bases of at most
    _BASIS (20) right vectors and one more left vector. The top right
    singular vector of the small bidiagonal matrix gives the Ritz vector v,
    with sigma = |X v| and u = X v / sigma, and the next cycle restarts
    from u. Each cycle opens with the matvec X.T u, which also tests the
    pair: it is accepted when the cross residual |X.T u - sigma v| falls
    below tol * sigma. max_iter bounds the matvec pairs (X.T u, X v) over
    all cycles; if it is spent first, the last pair is returned with
    converged=False.

    X, dense or scipy sparse, is applied through matvecs of its float CSR and
    of the zero-copy transposed view (a dense X and its CSR give the same
    triple): each pair costs O(nnz), and the bases take O((m + n) _BASIS).
    """
    X = _as_finite_operator(X)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    m, n = X.shape
    Xt = X.T

    rng = np.random.default_rng(_POWER_SEED)
    if not X.data.any():
        return SpectralTriple(0.0, np.eye(1, m)[0], np.eye(1, n)[0], True)

    u = rng.standard_normal(m)
    u /= np.linalg.norm(u)
    sigma = 0.0
    v = None
    converged = False
    # Left basis in the rows of Ub, right basis in the rows of Vb; B holds
    # the bidiagonal: alpha_j at B[j, j], beta_j at B[j + 1, j].
    Ub = np.empty((_BASIS + 1, m))
    Vb = np.empty((_BASIS, n))
    B = np.zeros((_BASIS + 1, _BASIS))
    pairs = 0
    while pairs < max_iter:
        w = Xt @ u
        pairs += 1
        if v is not None and np.linalg.norm(w - sigma * v) <= tol * sigma:
            converged = True
            break
        if not w.any():
            # start vector fell in the null space of X.T; redraw
            u = rng.standard_normal(m)
            u /= np.linalg.norm(u)
            continue
        B[:] = 0.0
        Ub[0] = u
        k = 0  # right vectors in the basis
        rows = 1  # left vectors in the basis
        while True:
            # X.T u_k: a new right vector unless it lies in the span of Vb
            w_norm = np.linalg.norm(w)
            w = _orthogonalize(w, Vb[:k])
            alpha = np.linalg.norm(w)
            if k == n or alpha <= _BREAKDOWN * w_norm:
                break
            Vb[k] = w / alpha
            B[k, k] = alpha
            # X v_k: a new left vector unless it lies in the span of Ub
            z = X @ Vb[k]
            z_norm = np.linalg.norm(z)
            z = _orthogonalize(z, Ub[:rows])
            beta = np.linalg.norm(z)
            k += 1
            if rows == m or beta <= _BREAKDOWN * z_norm:
                break
            Ub[rows] = z / beta
            B[rows, k - 1] = beta
            rows += 1
            if k == _BASIS or pairs == max_iter:
                break
            w = Xt @ Ub[k]
            pairs += 1
        # Top right Ritz vector; u = X v / |X v| makes X v = sigma u hold to
        # rounding, with exact zeros on the zero rows of X.
        v = np.linalg.svd(B[:rows, :k])[2][0] @ Vb[:k]
        v /= np.linalg.norm(v)
        u = X @ v
        sigma = np.linalg.norm(u)
        u /= sigma

    _fix_column_signs(u[:, None], v[:, None])
    return SpectralTriple(float(sigma), u, v, converged)
