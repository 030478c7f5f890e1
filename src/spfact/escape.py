"""Rank-one escape step, tried when a factorization stalls or converges.

At a stationary factor pair the most profitable rank-one direction to
append is the top singular pair (sigma, u, v) of the embedded residual
P*(Y - U V^T). Appending the balanced columns (tau u, tau v) changes
the objective, as a function of tau, by

    f(tau) = -tau^2 sigma + 0.5 tau^4 |P(u v^T)|_F^2 + lam tau^(2p).

For the fully observed operator |P(u v^T)|_F = 1 and the 1-D model is
exact; f dips below zero iff lam - mu^(1-p) sigma + 0.5 mu^(2-p) <= 0
with mu = (2-2p)/(2-p) * sigma, in which case tau = sqrt(mu). For masks
the projection is contractive, so an accepted step can only realize at
least the modeled descent; the realized decrease is still verified
before the append is committed, with a rollback guard for edge cases.

At p = 1 the mu formula degenerates; the classical polar condition
applies instead: accept iff sigma > lam, with tau^2 = sigma - lam.

The top pair comes from seeded restarted Lanczos bidiagonalization
(spectral.top_singular_pair) on the CSR of the residual triplets, so an
escape costs O(|Z|) per matvec pair and never forms an m x n matrix.
POWER_MAX_ITER caps the matvec pairs and POWER_TOL is the cross-residual
tolerance. A pair whose iteration did not converge is not trusted: the
step is rejected.
"""

from dataclasses import dataclass, replace

import numpy as np

from .norms import Factors, check_p, column_energies, kept_columns, objective_value
from .observed import masked_residual, residual_values
from .spectral import top_singular_pair

POWER_TOL = 1e-10
POWER_MAX_ITER = 20000


@dataclass(frozen=True)
class EscapeDecision:
    """Outcome of the 1-D escape test.

    tau = sqrt(mu) when accepted and 0 otherwise; descent_value is the
    modeled objective change f(tau), 0 when rejected except under rip_gap.
    rip_gap marks an append that the 1-D model accepted but the verified
    objective change rejected, which rolls the append back; the decision
    keeps the modeled descent that the verified objective contradicted. A
    step whose appended column prune would drop at once (a norm at or
    below cfg.prune_thres) is rejected too. power_converged is False when
    the top-pair iteration (restarted Lanczos bidiagonalization) spent its
    POWER_MAX_ITER matvec pairs before converging, which rejects the step.
    """

    sigma: float
    mu: float
    tau: float
    descent_value: float
    accepted: bool
    rip_gap: bool = False
    power_converged: bool = True


def _decide(sigma, lam, p):
    sigma = float(sigma)
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if p == 1.0:
        # Polar condition of the nuclear-norm specialization.
        if sigma > lam:
            mu = sigma - lam
            return EscapeDecision(sigma, mu, float(np.sqrt(mu)), -0.5 * mu * mu, True)
        return EscapeDecision(sigma, 0.0, 0.0, 0.0, False)
    mu = (2.0 - 2.0 * p) / (2.0 - p) * sigma
    test = lam - mu ** (1.0 - p) * sigma + 0.5 * mu ** (2.0 - p)
    if test <= 0.0:
        descent = -mu * sigma + 0.5 * mu * mu + lam * mu**p
        return EscapeDecision(sigma, mu, float(np.sqrt(mu)), descent, True)
    return EscapeDecision(sigma, mu, 0.0, 0.0, False)


def _top_pair_decision(X, lam, p):
    # The top pair of the residual X and the 1-D test on it; a pair whose
    # iteration did not converge rejects the step. The caps are read at
    # call time, so a patched POWER_MAX_ITER reaches every caller.
    p = check_p(p)
    if lam <= 0:
        raise ValueError("lam must be positive for the escape test")
    triple = top_singular_pair(X, POWER_TOL, POWER_MAX_ITER)
    dec = _decide(triple.sigma, lam, p)
    if not triple.converged:
        dec = replace(
            dec, accepted=False, tau=0.0, descent_value=0.0, power_converged=False
        )
    return triple, dec


def escape_decision(R, lam, p):
    """Closed-form accept/reject of a rank-one step on a residual matrix.

    R is the embedded residual as a dense array or a scipy sparse matrix
    (for instance masked_residual(Y, F).to_csr()).
    """
    return _top_pair_decision(R, lam, p)[1]


def attempt(Y, F, cfg, R=None):
    """Try a rank-one escape at (Y, F); commit only on verified descent.

    R, the masked residual at F, spares its recomputation when the caller
    holds it. Returns (factors, decision). On acceptance the factors gain
    the balanced column pair (tau u, tau v); on rejection (including the
    rollback path, a column that prune would drop and an unconverged
    top-pair iteration) the input factors are returned unchanged.
    """
    R = masked_residual(Y, F) if R is None else R
    triple, dec = _top_pair_decision(R.to_csr(), cfg.lam, cfg.p)
    if not dec.accepted:
        return F, dec
    obj_old = objective_value(R.val, column_energies(F), cfg.lam, cfg.p)
    R = None  # released before the verifying gather at F_new
    u, v = dec.tau * triple.u[:, None], dec.tau * triple.v[:, None]
    # prune would drop an appended column this short, leaving no descent
    if not kept_columns(u, v, cfg.prune_thres)[0]:
        return F, replace(dec, accepted=False, tau=0.0, descent_value=0.0)
    F_new = Factors(np.hstack([F.U, u]), np.hstack([F.V, v]))
    r_new = residual_values(Y, F_new)
    obj_new = objective_value(r_new, column_energies(F_new), cfg.lam, cfg.p)
    if obj_new < obj_old:
        return F_new, dec
    return F, replace(dec, accepted=False, tau=0.0, rip_gap=True)
