"""Numerical optimality certificates for factorized Schatten-p problems.

Three checks: normalized gradient norms of a factor pair (stationarity in
the factor space), membership of a matrix in the regular subdifferential
of |X|_Sp^p (stationarity in the ambient space), and the sum-form minus
Schatten gap on the factor core (zero certifies a balanced factorization).
"""

from dataclasses import dataclass

import numpy as np

from .norms import _numerical_rank, check_p, schatten_p_power, variational_sum
from .solver import grad_U, grad_V
from .spectral import _as_finite_matrix, full_svd

# Relative spacing under which singular values count as tied; within a
# tied cluster the off-diagonal entries of the rotated candidate are
# exempt from the zero test (basis freedom inside the cluster).
TIE_TOL = 1e-8


@dataclass
class StationarityReport:
    grad_norm_U: float
    grad_norm_V: float
    width: int


def factorized_stationarity(Y, F, cfg):
    """Normalized gradient norms of the factorized objective at F."""
    gu = np.linalg.norm(grad_U(Y, F, cfg))
    gv = np.linalg.norm(grad_V(Y, F, cfg))
    return StationarityReport(
        grad_norm_U=gu / max(1.0, np.linalg.norm(F.U)),
        grad_norm_V=gv / max(1.0, np.linalg.norm(F.V)),
        width=F.width,
    )


@dataclass(frozen=True)
class SubgradientCheck:
    member: bool
    diag_residual: float
    offdiag_residual: float


def subgradient_check(X, G, p, tol=1e-6):
    """Test G for membership in the regular subdifferential of |X|_Sp^p.

    With the compact SVD X = U diag(s) V^T over positive singular values,
    membership requires U^T G V = diag(p s_i^(p-1)) and the vanishing of
    the cross components U^T G (I - V V^T) and (I - U U^T) G V; the
    component supported on both orthogonal complements is unconstrained.
    tol is scaled by |G|_F. Returns the flag plus the diagonal and
    off-diagonal residual magnitudes (max absolute entry).
    """
    p = check_p(p)
    X = _as_finite_matrix(X, "X")
    G = _as_finite_matrix(G, "G")
    if X.shape != G.shape:
        raise ValueError(f"shape mismatch: X is {X.shape}, G is {G.shape}")
    U, s, V = full_svd(X)
    r = _numerical_rank(s)
    if r == 0:
        raise ValueError("X must be nonzero")
    U, s, V = U[:, :r], s[:r], V[:, :r]

    M = U.T @ G @ V
    diag_res = float(np.max(np.abs(np.diag(M) - p * s ** (p - 1.0))))

    off = np.abs(M.copy())
    np.fill_diagonal(off, 0.0)
    tied = np.abs(s[:, None] - s[None, :]) <= TIE_TOL * s[0]
    off[tied] = 0.0
    cross_rows = G @ V - U @ M
    cross_cols = U.T @ G - M @ V.T
    off_res = float(max(off.max(), np.abs(cross_rows).max(), np.abs(cross_cols).max()))

    tol_eff = tol * max(np.linalg.norm(G), np.finfo(float).tiny)
    member = diag_res <= tol_eff and off_res <= tol_eff
    return SubgradientCheck(member, diag_res, off_res)


def variational_gap(F, p):
    """Sum-form value minus the Schatten value of U V^T; always >= 0.

    Zero certifies a balanced factorization. The Schatten value is taken
    on the core R_U R_V^T of thin QRs of U and V, not on the m x n product.
    """
    core = np.linalg.qr(F.U, mode="r") @ np.linalg.qr(F.V, mode="r").T
    return variational_sum(F, p) - schatten_p_power(core, p)
