#!/usr/bin/env python3
"""Walkthrough: escaping an under-parameterized stationary point.

Starting the solver with fewer columns than the true rank traps it at a
poor stationary point: the factors cannot represent the missing
directions. The rank-one escape step tests whether appending a scaled
top singular pair (tau u, tau v) of the sparse residual can lower the
objective, with tau available in closed form; accepted steps grow the
factorization one column at a time until no profitable direction is left.
"""


from spfact import (
    SolverConfig,
    SynthSpec,
    escape_decision,
    gen_synthetic,
    masked_residual,
    relative_error,
    solve,
)

spec = SynthSpec(m=120, n=120, rank=6, snr_db=12.0, missing_rate=0.35, seed=2)
gt = gen_synthetic(spec)
print(f"instance: {spec.m}x{spec.n}, true rank {spec.rank}, init width 2\n")

base = dict(p=0.5, lam=40.0, init_width=2, seed=0, escape_check_max=12)

F_off, rep_off = solve(gt.y_obs, SolverConfig(escape_enabled=False, **base))
print("escapes disabled:")
print(f"  final rank {rep_off.final_width}, "
      f"RE {relative_error(F_off, gt.x_true, gt.test_mask):.4f}")

F_on, rep_on = solve(gt.y_obs, SolverConfig(escape_enabled=True, **base))
print("escapes enabled:")
print(f"  final rank {rep_on.final_width}, "
      f"RE {relative_error(F_on, gt.x_true, gt.test_mask):.4f}, "
      f"{rep_on.escapes} escapes")
print("  escape events (sweep, residual sigma, appended scale tau):")
for ev in rep_on.escape_events:
    print(f"    sweep {ev.iteration:>4}: sigma {ev.sigma:>9.3f}  tau {ev.tau:.3f}")

print("\nthe closed-form test at the stuck point, for a few lambda values:")
R = masked_residual(gt.y_obs, F_off).to_csr()
for lam in (10.0, 40.0, 200.0, 2000.0):
    dec = escape_decision(R, lam, 0.5)
    verdict = "append" if dec.accepted else "stop"
    print(
        f"  lam {lam:>7.0f}: sigma {dec.sigma:.2f}  mu {dec.mu:.2f}  "
        f"tau {dec.tau:.3f}  predicted change {dec.descent_value:>10.3f}  -> {verdict}"
    )
print("\nlarger lambda raises the bar a new column must clear; at some point")
print("the residual's top direction is no longer worth its regularization cost.")
