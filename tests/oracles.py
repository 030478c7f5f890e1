"""Independent reference computations used by the test suite.

Everything here deliberately avoids the library's own code paths: the
2x2 completion oracle works in the ambient matrix space with generic
optimizers, the tau oracle is a dense 1-D grid, and the finite-difference
gradient only evaluates the objective.
"""

import math

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from spfact import Factors, objective


def fd_gradient(Y, F, cfg, side):
    """Central finite differences of the solver objective in one block."""
    base = F.U if side == "U" else F.V
    G = np.zeros_like(base)
    for idx in np.ndindex(base.shape):
        h = 1e-6 * max(1.0, abs(base[idx]))
        plus = base.copy()
        plus[idx] += h
        minus = base.copy()
        minus[idx] -= h
        if side == "U":
            fp = objective(Y, Factors(plus, F.V), cfg)
            fm = objective(Y, Factors(minus, F.V), cfg)
        else:
            fp = objective(Y, Factors(F.U, plus), cfg)
            fm = objective(Y, Factors(F.U, minus), cfg)
        G[idx] = (fp - fm) / (2 * h)
    return G


def _ambient_value(X, Y, p, lam):
    # 2x2 only, in plain floats: the Nelder-Mead polish calls this ~10^5
    # times per instance. Singular values in closed form from
    # s1^2 + s2^2 = |X|_F^2 and s1 s2 = |det X|.
    x = X.ravel().tolist()
    a, b, c, d = x
    q = a * a + b * b + c * c + d * d
    det = abs(a * d - b * c)
    s1 = math.sqrt((q + math.sqrt(max(q * q - 4.0 * det * det, 0.0))) / 2.0)
    s2 = det / s1 if s1 > 0.0 else 0.0
    cut = 1e-12 * max(s1, 1e-300)
    reg = sum(s**p for s in (s1, s2) if s > cut)
    loss = sum((yi - xi) ** 2 for yi, xi in zip(Y.ravel().tolist(), x))
    return 0.5 * loss + lam * reg


def _scalar_shrink(s, p, lam):
    # minimize 0.5 (s - x)^2 + lam x^p over x >= 0: dense grid then polish
    xs = np.linspace(0.0, 1.5 * s + 1.0, 20001)
    vals = 0.5 * (s - xs) ** 2 + lam * xs**p
    best = xs[np.argmin(vals)]
    if best > 0:
        lo, hi = max(best - 1e-3, 1e-12), best + 1e-3
        r = minimize_scalar(
            lambda x: 0.5 * (s - x) ** 2 + lam * x**p,
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-12},
        )
        if r.fun < 0.5 * s**2:
            return float(r.x), float(r.fun)
    return 0.0, 0.5 * s**2


def oracle_min_2x2(Y, p, lam, restarts=200, seed=0):
    """Brute-force minimum of the fully observed 2x2 ambient problem.

    Combines a spectral candidate (optimal X shares Y's singular vectors,
    reducing to two 1-D shrinkage problems solved on a dense grid), a
    coarse grid over ambient entries, and Nelder-Mead polish from random
    restarts. Returns the best objective value found.
    """
    Y = np.asarray(Y, dtype=float)
    rng = np.random.default_rng(seed)

    # spectral candidate
    U, s, Vt = np.linalg.svd(Y)
    best = 0.0
    xs = []
    for si in s:
        x, v = _scalar_shrink(si, p, lam)
        xs.append(x)
        best += v
    candidates = [best, _ambient_value(np.zeros_like(Y), Y, p, lam)]

    # random restarts with Nelder-Mead in the 4 ambient coordinates
    scale = max(1.0, np.max(np.abs(Y)))
    starts = [Y.ravel(), (U @ np.diag(xs) @ Vt).ravel(), np.zeros(4)]
    for _ in range(restarts):
        starts.append(rng.uniform(-1.5, 1.5, size=4) * scale)
    for x0 in starts:
        r = minimize(
            lambda z: _ambient_value(z.reshape(2, 2), Y, p, lam),
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-11, "maxiter": 400},
        )
        candidates.append(r.fun)
    return float(min(candidates))


def tau_grid_oracle(sigma, lam, p, step=1e-4):
    """Dense-grid reference for the rank-one escape scale.

    Returns (tau_g, accept, f_min) where tau_g minimizes the scaled test
    curve g(tau) = lam - tau^(2-2p) sigma + 0.5 tau^(4-2p) over the grid,
    and accept reflects whether the appended-pair curve
    f(tau) = -tau^2 sigma + 0.5 tau^4 + lam tau^(2p) dips below -1e-9.
    """
    hi = 3.0 * max(1.0, np.sqrt(sigma)) * 2.0
    taus = np.arange(0.0, hi, step)
    with np.errstate(divide="ignore"):
        g = lam - taus ** (2 - 2 * p) * sigma + 0.5 * taus ** (4 - 2 * p)
    f = -(taus**2) * sigma + 0.5 * taus**4 + lam * taus ** (2 * p)
    tau_g = float(taus[np.argmin(g)])
    f_min = float(np.min(f))
    return tau_g, f_min < -1e-9, f_min
