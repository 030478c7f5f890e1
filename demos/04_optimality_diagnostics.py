#!/usr/bin/env python3
"""Walkthrough: certifying a solution numerically.

Three complementary checks on a converged factor pair:

  1. factor-space stationarity: normalized gradient norms of the blocks;
  2. the variational gap: sum form minus the spectral value of U V^T,
     zero exactly when the pair is balanced-SVD-equivalent;
  3. regular-subgradient membership in the ambient space: at a stationary
     point of the completion objective the scaled embedded residual
     P*(Y - X)/lam must look like a subgradient of sum_i sigma_i^p at X
     on the row/column spaces of X (the orthogonal complement is free).
"""

import numpy as np

from spfact import (
    SolverConfig,
    SynthSpec,
    balanced_factorization,
    factorized_stationarity,
    gen_synthetic,
    masked_residual,
    objective,
    solve,
    subgradient_check,
    variational_gap,
)

gt = gen_synthetic(SynthSpec(m=60, n=50, rank=4, snr_db=18.0, missing_rate=0.2, seed=4))
# ambient-space certificates need a deeply stationary point; expect ~15 s
cfg = SolverConfig(p=0.5, lam=25.0, init_width=8, seed=0, conv_tol=1e-8, max_iter=12000)
F, rep = solve(gt.y_obs, cfg)
print(f"solve: converged={rep.converged}, rank {rep.final_width}, {rep.iters} sweeps")

st = factorized_stationarity(gt.y_obs, F, cfg)
print(f"\n1. stationarity: |grad_U|/|U| = {st.grad_norm_U:.2e}, "
      f"|grad_V|/|V| = {st.grad_norm_V:.2e}")

gap_raw = variational_gap(F, cfg.p)
Fb = balanced_factorization(F.matrix(), F.width)
print(f"\n2. variational gap: raw factors {gap_raw:.2e}, "
      f"rebalanced {variational_gap(Fb, cfg.p):.2e}")
print(f"   rebalancing never raises the objective: "
      f"{objective(gt.y_obs, Fb, cfg):.6f} <= {objective(gt.y_obs, F, cfg):.6f}")

X = F.matrix()
G = masked_residual(gt.y_obs, F).to_csr().toarray() / cfg.lam
chk = subgradient_check(X, G, cfg.p, tol=1e-3)
print(f"\n3. subgradient membership of P*(residual)/lam at X:")
print(f"   member={chk.member}, diagonal residual {chk.diag_residual:.2e}, "
      f"off-diagonal residual {chk.offdiag_residual:.2e}")

rng = np.random.default_rng(0)
G_bad = G + 0.05 * np.outer(
    np.linalg.svd(X)[0][:, 0], np.linalg.svd(X)[2][1, :]
)
chk_bad = subgradient_check(X, G_bad, cfg.p, tol=1e-3)
print(f"   a 0.05 row/column-space perturbation is caught: member={chk_bad.member}, "
      f"off-diagonal residual {chk_bad.offdiag_residual:.2e}")
