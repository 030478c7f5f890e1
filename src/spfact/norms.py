"""Schatten-p quasi-norm and its column-decoupled variational forms.

For 0 < p <= 1 the quantity sum_i sigma_i(X)^p admits two equivalent
variational characterizations over factorizations X = U V^T:

    sum_i |u_i|^p |v_i|^p          (product form)
    sum_i ((|u_i|^2 + |v_i|^2)/2)^p  (sum form)

Both lower-bound nothing and upper-bound the Schatten value for every
factorization, with equality attained by the balanced factorization
U = U_X S^(1/2), V = V_X S^(1/2) built from the SVD of X. This module
evaluates all three quantities and constructs the balanced attainer.
"""

from dataclasses import dataclass

import numpy as np

from .spectral import _as_finite_matrix, full_svd

# Singular values below RANK_TOL * sigma_1 are treated as exactly zero so
# that 0^p terms (and later p-1 < 0 exponents) never enter.
RANK_TOL = 1e-12


def check_p(p):
    """Validate a Schatten exponent, 0 < p <= 1."""
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    return p


@dataclass(frozen=True)
class Factors:
    """Factor pair (U, V) representing the matrix U @ V.T.

    U is m x d and V is n x d with a shared width d >= 1. An array that is
    already read-only, C-ordered and owns its data, such as another
    instance's factor, is shared; any other input (a writeable array, a
    read-only view, a list) is copied and the copy frozen. Treat instances
    as immutable.
    """

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        U = _as_finite_matrix(self.U, "U")
        V = _as_finite_matrix(self.V, "V")
        if U.shape[1] != V.shape[1]:
            raise ValueError(
                f"factor widths disagree: U has {U.shape[1]} columns, V has {V.shape[1]}"
            )
        if U.shape[1] < 1:
            raise ValueError("factors must have at least one column")
        object.__setattr__(self, "U", _frozen(U))
        object.__setattr__(self, "V", _frozen(V))

    @property
    def width(self):
        return self.U.shape[1]

    @property
    def shape(self):
        return (self.U.shape[0], self.V.shape[0])

    def matrix(self):
        """Dense product U @ V.T."""
        return self.U @ self.V.T

    def column_norms(self):
        """Euclidean norms of the columns of U and of V."""
        return np.linalg.norm(self.U, axis=0), np.linalg.norm(self.V, axis=0)


def kept_columns(U, V, thres):
    """The prune rule: keep column i iff |u_i| > thres and |v_i| > thres."""
    return (np.linalg.norm(U, axis=0) > thres) & (np.linalg.norm(V, axis=0) > thres)


def _frozen(A):
    # A itself when it is read-only, C-ordered and owns its data, as every
    # factor of a Factors is; otherwise a frozen C-ordered copy, so a
    # writeable input or a view of one can never change an instance.
    if A.flags.owndata and A.flags.c_contiguous and not A.flags.writeable:
        return A
    A = A.copy()
    A.setflags(write=False)
    return A


def column_energies(F):
    """Per-column energies c_i = (|u_i|^2 + |v_i|^2) / 2."""
    return 0.5 * (np.sum(F.U * F.U, axis=0) + np.sum(F.V * F.V, axis=0))


def objective_value(r, c, lam, p):
    """The objective 0.5 |r|^2 + lam * sum_i c_i^p from residuals and energies."""
    return 0.5 * float(r @ r) + lam * float(np.sum(c ** float(p)))


def _numerical_rank(s):
    # How many singular values s (sorted descending) exceed RANK_TOL * s[0].
    return int(np.sum(s > RANK_TOL * s[:1]))


def schatten_p_power(X, p):
    """sum_i sigma_i(X)^p over the positive singular values of X."""
    p = check_p(p)
    _, s, _ = full_svd(X)
    return float(np.sum(s[: _numerical_rank(s)] ** p))


def variational_product(F, p):
    """Product form sum_i (|u_i| |v_i|)^p of a factor pair."""
    p = check_p(p)
    nu, nv = F.column_norms()
    return float(np.sum((nu * nv) ** p))


def variational_sum(F, p):
    """Sum form sum_i ((|u_i|^2 + |v_i|^2)/2)^p of a factor pair."""
    p = check_p(p)
    return float(np.sum(column_energies(F) ** p))


def balanced_factorization(X, d):
    """Width-d factorization of X attaining the variational forms.

    Takes U = U_X diag(sqrt(s)), V = V_X diag(sqrt(s)) from the SVD of X,
    padded with zero columns up to width d. Requires d at least the
    numerical rank of X.
    """
    X = _as_finite_matrix(X)
    d = int(d)
    if d < 1:
        raise ValueError("width d must be at least 1")
    U, s, V = full_svd(X)
    r = _numerical_rank(s)
    if d < r:
        raise ValueError(f"width d={d} is below the numerical rank {r}")
    m, n = X.shape
    Ub = np.zeros((m, d))
    Vb = np.zeros((n, d))
    if r:
        root = np.sqrt(s[:r])
        Ub[:, :r] = U[:, :r] * root
        Vb[:, :r] = V[:, :r] * root
    return Factors(Ub, Vb)
