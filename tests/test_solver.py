import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spfact import (
    Factors,
    ObservedMatrix,
    SolverConfig,
    SynthSpec,
    gen_synthetic,
    grad_U,
    grad_V,
    loss_value,
    objective,
    relative_error,
    solve,
    surrogate_hessian_U,
)
from spfact import escape, solver
from spfact.norms import column_energies
from spfact.solver import bsum_step, prune, random_factors, surrogate_hessian_V


def one_by_one():
    Y = ObservedMatrix(1, 1, [0], [0], [3.0])
    F = Factors(np.array([[1.0]]), np.array([[1.0]]))
    cfg = SolverConfig(p=0.5, lam=1.0, init_width=1)
    return Y, F, cfg


def random_instance(rng, m=6, n=5, d=3, p=0.5, lam=0.7, frac=0.7):
    k = max(1, int(round(frac * m * n)))
    lin = rng.choice(m * n, size=k, replace=False)
    Y = ObservedMatrix(m, n, lin // n, lin % n, rng.standard_normal(k))
    # keep columns away from zero so c^(p-1) stays tame for difference checks
    U = rng.standard_normal((m, d)) + 0.5 * np.sign(rng.standard_normal((m, d)))
    V = rng.standard_normal((n, d)) + 0.5 * np.sign(rng.standard_normal((n, d)))
    cfg = SolverConfig(p=p, lam=lam, init_width=d)
    return Y, Factors(U, V), cfg


from oracles import fd_gradient, oracle_min_2x2


# ----------------------------------------------------------------------
# configuration and objective


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(p=1.5, lam=1.0, init_width=2)
    with pytest.raises(ValueError):
        SolverConfig(p=0.5, lam=-1.0, init_width=2)
    with pytest.raises(ValueError):
        SolverConfig(p=0.5, lam=1.0, init_width=0)
    with pytest.raises(ValueError):
        SolverConfig(p=0.5, lam=1.0, init_width=2, conv_tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig(p=0.5, lam=1.0, init_width=2, max_iter=0)
    cfg = SolverConfig(p=0.5, lam=1.0, init_width=4)
    assert cfg.escape_budget == 4
    assert SolverConfig(p=0.5, lam=1.0, init_width=4, escape_check_max=9).escape_budget == 9
    # no escape is tried with escapes off or at lam = 0
    assert replace(cfg, escape_enabled=False, escape_check_max=9).escape_budget == 0
    assert replace(cfg, lam=0.0, escape_check_max=9).escape_budget == 0


@pytest.mark.parametrize("field", ["lam", "prune_thres", "conv_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite_values(field, value):
    # a NaN tolerance or threshold would pass every comparison silently,
    # and a NaN or infinite lam would fail deep in the sweep
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{"p": 0.5, "lam": 1.0, "init_width": 2, field: value})
    assert SolverConfig(p=0.5, lam=0.0, init_width=2).lam == 0.0


def test_objective_hand_cases():
    Y, F, cfg = one_by_one()
    assert objective(Y, F, cfg) == pytest.approx(3.0)
    F0 = Factors(np.zeros((1, 1)), np.zeros((1, 1)))
    assert objective(Y, F0, cfg) == pytest.approx(4.5)
    exact = Factors(np.array([[3.0]]), np.array([[1.0]]))
    cfg0 = SolverConfig(p=0.5, lam=0.0, init_width=1)
    assert objective(Y, exact, cfg0) == pytest.approx(0.0)


# ----------------------------------------------------------------------
# gradients


def test_grad_hand_case():
    Y, F, cfg = one_by_one()
    assert grad_U(Y, F, cfg)[0, 0] == pytest.approx(-1.5)
    assert grad_V(Y, F, cfg)[0, 0] == pytest.approx(-1.5)


def test_grad_zero_at_exact_fit_without_reg():
    rng = np.random.default_rng(0)
    U = rng.standard_normal((5, 2))
    V = rng.standard_normal((4, 2))
    F = Factors(U, V)
    Y = ObservedMatrix.from_dense(F.matrix())
    cfg = SolverConfig(p=0.5, lam=0.0, init_width=2)
    assert np.max(np.abs(grad_U(Y, F, cfg))) <= 1e-12
    assert np.max(np.abs(grad_V(Y, F, cfg))) <= 1e-12


def test_grad_rejects_zero_columns():
    Y = ObservedMatrix(2, 2, [0], [0], [1.0])
    F = Factors(np.zeros((2, 1)), np.zeros((2, 1)))
    cfg = SolverConfig(p=0.5, lam=1.0, init_width=1)
    with pytest.raises(ValueError, match="zero-energy"):
        grad_U(Y, F, cfg)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(1)
    for k in range(12):
        p = [0.3, 0.5, 0.9, 1.0][k % 4]
        Y, F, cfg = random_instance(rng, p=p, lam=[0.0, 0.4, 1.3][k % 3])
        for side, fn in (("U", grad_U), ("V", grad_V)):
            G = fn(Y, F, cfg)
            G_fd = fd_gradient(Y, F, cfg, side)
            scale = max(np.max(np.abs(G)), 1e-12)
            assert np.max(np.abs(G - G_fd)) / scale < 1e-5


# ----------------------------------------------------------------------
# surrogate Hessians


def test_hessian_hand_case():
    Y, F, cfg = one_by_one()
    assert surrogate_hessian_U(F, cfg)[0, 0] == pytest.approx(1.5)
    assert surrogate_hessian_V(F, cfg)[0, 0] == pytest.approx(1.5)


def test_hessian_identity_when_unregularized():
    F = Factors(np.ones((3, 2)), np.eye(2))
    cfg = SolverConfig(p=0.5, lam=0.0, init_width=2)
    assert np.allclose(surrogate_hessian_U(F, cfg), np.eye(2))


def test_hessian_rejects_singular():
    # rank-deficient V with lam = 0 has a singular V^T V
    V = np.ones((4, 2))
    U = np.ones((3, 2))
    cfg = SolverConfig(p=0.5, lam=0.0, init_width=2)
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        surrogate_hessian_U(Factors(U, V), cfg)


def test_hessian_dominates_row_loss_hessian():
    # H - sum_{j in Z_row} v_j v_j^T is PSD for every row
    rng = np.random.default_rng(2)
    for _ in range(10):
        Y, F, cfg = random_instance(rng)
        H = surrogate_hessian_U(F, cfg)
        for i in range(Y.m):
            lo, hi = Y.row_ptr[i], Y.row_ptr[i + 1]
            Vi = F.V[Y.col[lo:hi]]
            diff = H - Vi.T @ Vi  # lam W only adds to the diagonal
            assert np.linalg.eigvalsh(diff)[0] >= -1e-10


def test_surrogate_majorizes_objective():
    # quadratic model >= true objective as a function of U, equality at base
    rng = np.random.default_rng(3)
    for _ in range(20):
        Y, F, cfg = random_instance(rng)
        G = grad_U(Y, F, cfg)
        H = surrogate_hessian_U(F, cfg)
        f0 = objective(Y, F, cfg)
        for _ in range(5):
            D = rng.standard_normal(F.U.shape) * rng.uniform(0.1, 3.0)
            Unew = F.U + D
            g = f0 + float(np.sum(G * D)) + 0.5 * float(np.sum((D @ H) * D))
            f = objective(Y, Factors(Unew, F.V), cfg)
            assert g >= f - 1e-9
        assert abs(f0 - (f0 + 0.0)) <= 1e-12  # equality at the base point


# ----------------------------------------------------------------------
# bsum_step


def test_bsum_step_hand_case():
    Y, F, cfg = one_by_one()
    F2 = bsum_step(Y, F, cfg)
    assert F2.U[0, 0] == pytest.approx(2.0)
    assert objective(Y, F2, cfg) < objective(Y, F, cfg)


def test_bsum_step_fixed_point():
    # stationary point of the 1x1 problem: both gradients vanish at u=v=s*
    # where 2 s^3 - 6 s + 1 = 0 (from -(3 - s^2) s + 1/2 = 0)
    roots = np.roots([2.0, 0.0, -6.0, 1.0])
    s = float(max(r.real for r in roots if abs(r.imag) < 1e-12))
    Y = ObservedMatrix(1, 1, [0], [0], [3.0])
    cfg = SolverConfig(p=0.5, lam=1.0, init_width=1)
    F = Factors(np.array([[s]]), np.array([[s]]))
    F2 = bsum_step(Y, F, cfg)
    assert abs(F2.U[0, 0] - s) <= 1e-12
    assert abs(F2.V[0, 0] - s) <= 1e-12


def test_bsum_step_monotone_descent():
    rng = np.random.default_rng(4)
    for _ in range(10):
        Y, F, cfg = random_instance(rng)
        prev = objective(Y, F, cfg)
        for _ in range(25):
            F = bsum_step(Y, F, cfg)
            cur = objective(Y, F, cfg)
            assert cur <= prev + 1e-10
            prev = cur


# ----------------------------------------------------------------------
# prune


def test_prune_keeps_healthy_columns():
    rng = np.random.default_rng(5)
    F = Factors(rng.standard_normal((4, 3)), rng.standard_normal((5, 3)))
    assert prune(F, 1e-5) is F


def test_prune_drops_zero_and_tiny_columns():
    U = np.array([[1.0, 0.0, 1e-6], [2.0, 0.0, 0.0]])
    V = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.5, 0.5, 0.5]])
    F = Factors(U, V)
    F2 = prune(F, 1e-5)
    assert F2.width == 1
    assert np.allclose(F2.U[:, 0], [1.0, 2.0])


def test_prune_objective_shift_bound():
    # removing a tiny column changes the objective by at most
    # lam * c^p + O(thres * |Y|)
    rng = np.random.default_rng(6)
    Y, F, cfg = random_instance(rng, d=3)
    U = F.U.copy()
    V = F.V.copy()
    U[:, 2] *= 1e-6 / np.linalg.norm(U[:, 2])
    V[:, 2] *= 1e-6 / np.linalg.norm(V[:, 2])
    F = Factors(U, V)
    F2 = prune(F, 1e-5)
    assert F2.width == 2
    c = column_energies(F)[2]
    bound = cfg.lam * c**cfg.p + 10 * 1e-5 * np.linalg.norm(Y.val)
    assert abs(objective(Y, F2, cfg) - objective(Y, F, cfg)) <= bound


def test_prune_collapse_keeps_flagged_zero_column():
    F = Factors(np.full((3, 2), 1e-9), np.full((4, 2), 1e-9))
    with pytest.warns(RuntimeWarning, match="retaining"):
        F2 = prune(F, 1e-5)
    assert F2.width == 1
    assert not F2.U.any() and not F2.V.any()


# ----------------------------------------------------------------------
# solve


def test_solve_zero_data():
    Y = ObservedMatrix.from_dense(np.zeros((4, 4)))
    cfg = SolverConfig(p=0.5, lam=1.0, init_width=3, seed=0)
    with pytest.warns(RuntimeWarning):
        F, rep = solve(Y, cfg)
    assert rep.converged
    assert rep.stop_reason == "collapse"
    assert rep.objective_trace[-1] == pytest.approx(0.0, abs=1e-20)
    assert not F.matrix().any()


@pytest.mark.parametrize("lam, scale", [(1e6, 1.0), (3.0, 1e-150)])
def test_solve_reports_collapse(lam, scale):
    # a lam that outweighs the data, and data too small to keep any column:
    # prune drops every column and the escape from zero is rejected
    gt = gen_synthetic(SynthSpec(60, 50, 4, 20.0, 0.5, 1))
    Y = gt.y_obs.with_values(scale * gt.y_obs.val)
    cfg = SolverConfig(p=0.5, lam=lam, init_width=6)
    with pytest.warns(RuntimeWarning, match="retaining"):
        F, rep = solve(Y, cfg)
    assert rep.stop_reason == "collapse" and rep.converged
    assert rep.final_width == 1 and not F.matrix().any()


def test_solve_noiseless_rank2():
    gt = gen_synthetic(SynthSpec(20, 20, 2, float("inf"), 0.4, 3))
    cfg = SolverConfig(
        p=0.5, lam=0.03, init_width=5, seed=1, conv_tol=1e-7, max_iter=4000
    )
    F, rep = solve(gt.y_obs, cfg)
    assert rep.final_width == 2
    assert relative_error(F, gt.x_true, gt.test_mask) < 1e-3


def test_solve_underparameterized_escapes_to_full_rank():
    gt = gen_synthetic(SynthSpec(20, 20, 2, float("inf"), 0.4, 3))
    cfg = SolverConfig(p=0.5, lam=0.5, init_width=1, seed=1)
    F, rep = solve(gt.y_obs, cfg)
    assert rep.escapes >= 1
    assert rep.final_width == 2
    assert len(rep.escape_events) == rep.escapes
    ev = rep.escape_events[0]
    assert ev.sigma > 0 and ev.tau > 0
    # the escape strictly decreases the recorded objective
    assert rep.objective_trace[ev.trace_index] < rep.objective_trace[ev.trace_index - 1]


def test_solve_trace_monotone_outside_escapes():
    gt = gen_synthetic(SynthSpec(15, 12, 2, 20.0, 0.3, 7))
    cfg = SolverConfig(p=0.5, lam=0.4, init_width=4, seed=2)
    _, rep = solve(gt.y_obs, cfg)
    escape_idx = {e.trace_index for e in rep.escape_events}
    diffs = np.diff(rep.objective_trace)
    for i, d in enumerate(diffs, start=1):
        if i not in escape_idx:
            assert d <= 1e-10


def test_solve_validates_input():
    Y = ObservedMatrix(2, 2, [], [], [])
    cfg = SolverConfig(p=0.5, lam=1.0, init_width=1)
    with pytest.raises(ValueError, match="empty"):
        solve(Y, cfg)
    Y2 = ObservedMatrix(2, 2, [0], [0], [1.0])
    bad = Factors(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError, match="width"):
        solve(Y2, cfg, bad)


def test_solve_deterministic():
    gt = gen_synthetic(SynthSpec(12, 10, 2, 15.0, 0.3, 5))
    cfg = SolverConfig(p=0.5, lam=0.5, init_width=3, seed=9)
    F1, r1 = solve(gt.y_obs, cfg)
    F2, r2 = solve(gt.y_obs, cfg)
    assert np.array_equal(F1.U, F2.U)
    assert np.array_equal(F1.V, F2.V)
    assert np.array_equal(r1.objective_trace, r2.objective_trace)
    assert r1.escape_events == r2.escape_events


def test_solve_report_width_bound():
    gt = gen_synthetic(SynthSpec(12, 10, 3, 10.0, 0.2, 11))
    cfg = SolverConfig(p=0.5, lam=0.3, init_width=2, seed=0)
    _, rep = solve(gt.y_obs, cfg)
    assert rep.final_width <= cfg.init_width + rep.escapes


def test_solve_least_squares_mode():
    # lam = 0: plain alternating least-squares style descent, no escapes
    gt = gen_synthetic(SynthSpec(10, 10, 2, float("inf"), 0.0, 2))
    cfg = SolverConfig(p=0.5, lam=0.0, init_width=2, seed=1, max_iter=500)
    F, rep = solve(gt.y_obs, cfg)
    assert rep.escapes == 0
    assert loss_value(gt.y_obs, F) <= 1e-6 * np.linalg.norm(gt.y_obs.val) ** 2


def test_random_factors_scale():
    gt = gen_synthetic(SynthSpec(30, 25, 3, 20.0, 0.4, 4))
    cfg = SolverConfig(p=0.5, lam=1.0, init_width=4, seed=3)
    F = random_factors(gt.y_obs, cfg)
    target = np.linalg.norm(gt.y_obs.val) * np.sqrt(30 * 25 / gt.y_obs.nnz)
    got = np.linalg.norm(F.matrix())
    assert 0.2 * target <= got <= 5.0 * target


def test_bsum_step_oracle_2x2():
    # 500 sweeps on a fully observed 2x2 land within 1e-4 of a brute-force
    # minimum over X (grid + restarts + polish); see test_acceptance for
    # the solve()-level version of this check and for why instances whose
    # singular values sit in the keep-or-drop bistable band are excluded
    rng = np.random.default_rng(108)
    Y_dense = rng.standard_normal((2, 2))
    Y = ObservedMatrix.from_dense(Y_dense)
    cfg = SolverConfig(p=0.5, lam=1.0, init_width=2, seed=0)
    F = random_factors(Y, cfg)
    for _ in range(500):
        F = prune(bsum_step(Y, F, cfg), cfg.prune_thres)
        if not column_energies(F).max():
            break
    best = oracle_min_2x2(Y_dense, cfg.p, cfg.lam)
    assert objective(Y, F, cfg) <= best + 1e-4


def test_step_cost_scales_linearly_in_observations():
    # 4x the observations at fixed width should cost about 4x per sweep
    rng = np.random.default_rng(13)
    m = n = 400
    d = 4
    times = []
    for frac in (0.25, 1.0):
        k = int(frac * m * n)
        lin = rng.choice(m * n, size=k, replace=False)
        Y = ObservedMatrix(m, n, lin // n, lin % n, rng.standard_normal(k))
        F = Factors(rng.standard_normal((m, d)), rng.standard_normal((n, d)))
        cfg = SolverConfig(p=0.5, lam=1.0, init_width=d)
        bsum_step(Y, F, cfg)  # warm up
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(3):
                bsum_step(Y, F, cfg)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    ratio = times[1] / times[0]
    assert ratio <= 8.0, f"per-sweep cost ratio {ratio:.2f} not within 2x of linear"


# ----------------------------------------------------------------------
# the fused sweep inside solve, and why solve stopped


def test_solve_holds_one_residual_at_a_time():
    # a residual here is 0.96 MB and the factors 1.12 MB; the sweep holds the
    # old and new factors, one residual and one gather block pair or one
    # residual product: 3.7 MiB (6.1 MiB when residuals and copies outlived
    # their use)
    m, n, nnz, d = 4000, 3000, 120_000, 20
    rng = np.random.default_rng(5)
    lin = rng.choice(m * n, size=nnz, replace=False)
    Y = ObservedMatrix(m, n, lin // n, lin % n, rng.standard_normal(nnz))
    cfg = SolverConfig(p=0.5, lam=1.0, init_width=d, max_iter=3, escape_enabled=False)
    solve(Y, cfg)  # warm up
    tracemalloc.start()
    try:
        _, rep = solve(Y, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.iters == 3
    assert peak <= 5 * 2**20


def test_solve_holds_its_working_set():
    # The peak is one sweep's working set: the caller's factors
    # ((m+n) d), the updated U (m d), one residual (nnz) and one product or
    # gather block pair (n d here), plus 64 KiB of slack: 3.2 MB + 64 KiB.
    # A second copy of V, or the previous iterate held through the gather,
    # adds 0.48 MB or more (3.84 MB measured before both were dropped).
    m, n, nnz, d = 4000, 3000, 120_000, 20
    rng = np.random.default_rng(5)
    lin = rng.choice(m * n, size=nnz, replace=False)
    Y = ObservedMatrix(m, n, lin // n, lin % n, rng.standard_normal(nnz))
    cfg = SolverConfig(p=0.5, lam=1.0, init_width=d, max_iter=3, escape_enabled=False)
    solve(Y, cfg)  # warm up
    tracemalloc.start()
    try:
        _, rep = solve(Y, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.iters == 3
    assert peak <= ((m + n) * d + m * d + nnz + n * d) * 8 + 64 * 2**10


def test_solve_leaves_the_initial_factors_unchanged():
    # Factors shares frozen arrays between instances, so the solve's
    # iterates may share F0's storage; F0 itself must not change.
    gt = gen_synthetic(SynthSpec(20, 20, 2, float("inf"), 0.4, 3))
    cfg = SolverConfig(p=0.5, lam=0.5, init_width=1, seed=1)
    F0 = random_factors(gt.y_obs, cfg)
    U0, V0 = F0.U.copy(), F0.V.copy()
    F, rep = solve(gt.y_obs, cfg, F0)
    assert rep.iters > 1 and rep.escapes == 1
    assert np.array_equal(F0.U, U0) and np.array_equal(F0.V, V0)
    assert not (F0.U.flags.writeable or F0.V.flags.writeable)
    assert not (F.U.flags.writeable or F.V.flags.writeable)


def test_solve_rejects_an_initial_point_that_does_not_fit():
    Y, F, cfg = one_by_one()
    wide = Factors(np.ones((1, 2)), np.ones((1, 2)))
    with pytest.raises(ValueError, match="initial width 2"):
        solve(Y, cfg, wide)
    tall = Factors(np.ones((2, 1)), np.ones((1, 1)))
    with pytest.raises(ValueError, match=r"factor shape \(2, 1\) does not match data shape"):
        solve(Y, cfg, tall)
    assert solve(Y, cfg, F)[1].iters >= 1


def _hand_solve(Y, cfg, rep):
    # solve() rebuilt from the public pieces: bsum_step -> prune -> objective
    # per sweep, and attempt -> prune -> objective at each recorded escape
    F = prune(random_factors(Y, cfg), cfg.prune_thres)
    trace = [objective(Y, F, cfg)]
    escape_at = {e.iteration: e for e in rep.escape_events}
    for t in range(1, rep.iters + 1):
        F = prune(bsum_step(Y, F, cfg), cfg.prune_thres)
        trace.append(objective(Y, F, cfg))
        if t in escape_at:
            F_new, dec = escape.attempt(Y, F, cfg)
            assert dec.accepted
            F = prune(F_new, cfg.prune_thres)
            trace.append(objective(Y, F, cfg))
            assert escape_at[t].trace_index == len(trace) - 1
    return F, np.asarray(trace)


@pytest.mark.parametrize("escapes", [False, True])
def test_solve_matches_hand_loop_bit_for_bit(escapes):
    gt = gen_synthetic(SynthSpec(20, 20, 2, float("inf"), 0.4, 3))
    cfg = SolverConfig(p=0.5, lam=0.5, init_width=1, seed=1, escape_enabled=escapes)
    F, rep = solve(gt.y_obs, cfg)
    assert rep.escapes == (1 if escapes else 0)
    F_hand, trace = _hand_solve(gt.y_obs, cfg, rep)
    assert np.array_equal(rep.objective_trace, trace)
    assert np.array_equal(F.U, F_hand.U) and np.array_equal(F.V, F_hand.V)


def test_solve_stop_reasons(monkeypatch):
    gt = gen_synthetic(SynthSpec(60, 50, 4, 20.0, 0.5, 1))
    cfg = SolverConfig(p=0.5, lam=3.0, init_width=2)
    # two escapes take the width from 2 to the rank 4 and spend the default
    # budget; a larger budget lets a third escape be tried and rejected
    for reason, c in [
        ("converged", cfg),
        ("escape_rejected", replace(cfg, escape_check_max=5)),
        ("max_iter", replace(cfg, max_iter=3)),
    ]:
        _, rep = solve(gt.y_obs, c)
        assert rep.stop_reason == reason
        assert rep.converged == (reason != "max_iter")
        assert rep.final_width == (2 if reason == "max_iter" else 4)
    # power iteration cut off after one step: the first escape is rejected
    # as untrusted, and the solve does not report convergence
    monkeypatch.setattr(escape, "POWER_MAX_ITER", 1)
    _, rep = solve(gt.y_obs, cfg)
    assert rep.stop_reason == "escape_unconverged"
    assert not rep.converged
    assert rep.escapes == 0 and rep.final_width == 2


def _log_sweeps_and_attempts(monkeypatch, drops=None):
    # Logs each sweep's starting iterate, and each attempt with the relative
    # change of the sweep before it (computed from the dense iterates),
    # whether it was accepted, and whether it was chained: made on the sweep
    # right after an accepted escape. A rejection must return F itself. When
    # drops is a list, each attempt also appends to it the relative objective
    # decrease of the sweep before it, read from the objective before and
    # after that sweep.
    log, start = [], []
    step, attempt = solver.bsum_step, escape.attempt

    def logged_step(Y, F, cfg, *args):
        log.append(("sweep", F.matrix()))
        start[:] = [objective(Y, F, cfg)]
        return step(Y, F, cfg, *args)

    def logged_attempt(Y, F, cfg, *args):
        kind, X_old = log[-1]
        assert kind == "sweep"
        rel = np.linalg.norm(F.matrix() - X_old) / np.linalg.norm(X_old)
        chained = len(log) > 1 and log[-2][0] == "attempt" and log[-2][1][1]
        if drops is not None:
            after = objective(Y, F, cfg)
            drops.append((start[0] - after) / after)
        F_new, dec = attempt(Y, F, cfg, *args)
        assert dec.accepted or F_new is F
        log.append(("attempt", (rel, dec.accepted, chained)))
        return F_new, dec

    monkeypatch.setattr(solver, "bsum_step", logged_step)
    monkeypatch.setattr(escape, "attempt", logged_attempt)
    return log


def test_solve_tries_one_early_escape_per_stall(monkeypatch):
    # An escape is accepted early, chained attempts follow until one is
    # rejected, the one early attempt at the stall level is rejected, and the
    # solve sweeps on until it converges and its final attempt is rejected.
    gt = gen_synthetic(SynthSpec(60, 50, 4, 20.0, 0.5, 1))
    cfg = SolverConfig(p=0.5, lam=3.0, init_width=2, escape_check_max=5)
    drops = []
    log = _log_sweeps_and_attempts(monkeypatch, drops)
    _, rep = solve(gt.y_obs, cfg)
    tol = cfg.conv_tol
    attempts = [rec for kind, rec in log if kind == "attempt"]
    # at the stall: the iterate's relative change is below 10 * tol, or the
    # sweep's relative objective decrease is at most tol
    stall = [
        rel < 10 * tol * (1 + 1e-9) or drop <= tol * (1 + 1e-9)
        for (rel, _, _), drop in zip(attempts, drops, strict=True)
    ]
    assert all(at_stall or chained for at_stall, (_, _, chained) in zip(stall, attempts))
    # a chained attempt at the early stall level is that level's one attempt
    early = 0
    for at_stall, (rel, accepted, chained) in zip(stall, attempts):
        early += rel >= tol and (at_stall or not chained)
        assert early <= 1
        if accepted:
            early = 0
    # an early rejection, more sweeps, then the attempt at convergence
    kinds = [kind for kind, _ in log]
    rejected_early = [
        i for i, (kind, rec) in enumerate(log)
        if kind == "attempt" and rec[0] >= tol and not rec[1]
    ]
    assert rejected_early
    assert kinds[rejected_early[0] + 1] == "sweep" and kinds[-1] == "attempt"
    final_rel, final_accepted, _ = log[-1][1]
    assert final_rel < tol and not final_accepted
    assert rep.stop_reason == "escape_rejected" and rep.escapes == 4
    # the report lists every attempt, rejections included
    assert [(a.early, a.decision.accepted) for a in rep.escape_attempts] == [
        (rel >= tol, accepted) for rel, accepted, _ in attempts
    ]


def test_a_rejected_chained_attempt_leaves_the_early_attempt(monkeypatch):
    # The instance above: after the first escape, chained attempts are made
    # sweep after sweep until one is rejected above the early stall level.
    # The solve sweeps on, and its early attempt at the stall level is still
    # made.
    gt = gen_synthetic(SynthSpec(60, 50, 4, 20.0, 0.5, 1))
    cfg = SolverConfig(p=0.5, lam=3.0, init_width=2, escape_check_max=5)
    log = _log_sweeps_and_attempts(monkeypatch)
    _, rep = solve(gt.y_obs, cfg)
    tol = cfg.conv_tol
    attempts = [rec for kind, rec in log if kind == "attempt"]
    assert [accepted for _, accepted, _ in attempts[:4]] == [True] * 4
    assert [chained for _, _, chained in attempts[:5]] == [False] + [True] * 4
    rel, accepted, _ = attempts[4]
    assert rel >= 10 * tol and not accepted
    its = [a.iteration for a in rep.escape_attempts]
    assert its[1:5] == list(range(its[0] + 1, its[0] + 5))
    # the stall-level attempt, some sweeps after the rejected chained one
    rel, _, chained = attempts[5]
    assert not chained and tol <= rel < 10 * tol * (1 + 1e-9)
    assert its[5] > its[4] + 1


def test_solve_tries_the_escape_when_the_objective_stalls(monkeypatch):
    # Table1's geometry at generator seed 2: the objective goes flat while
    # the iterate still moves by more than 10 * conv_tol per sweep. The first
    # attempt comes at the objective stall level and is accepted, and the
    # solve grows from width 5 to the generating rank.
    gt = gen_synthetic(SynthSpec(200, 200, 10, 10.0, 0.4, 2))
    cfg = SolverConfig(p=0.5, lam=100.0, init_width=5)
    drops = []
    log = _log_sweeps_and_attempts(monkeypatch, drops)
    F, rep = solve(gt.y_obs, cfg)
    tol = cfg.conv_tol
    rel, accepted, chained = next(rec for kind, rec in log if kind == "attempt")
    assert rel >= 10 * tol and drops[0] <= tol
    assert accepted and not chained and rep.escape_attempts[0].early
    assert rep.stop_reason == "converged" and rep.final_width == 10
    assert relative_error(F, gt.x_true, gt.test_mask) <= 0.2


@pytest.mark.parametrize("budget", [0, 1, 2, 3])
def test_solve_attempts_no_escape_once_the_budget_is_spent(monkeypatch, budget):
    # The instance above accepts four escapes when the budget allows five,
    # so each of these budgets is spent, the last ones by chained attempts.
    gt = gen_synthetic(SynthSpec(60, 50, 4, 20.0, 0.5, 1))
    cfg = SolverConfig(p=0.5, lam=3.0, init_width=2, escape_check_max=budget)
    log = _log_sweeps_and_attempts(monkeypatch)
    _, rep = solve(gt.y_obs, cfg)
    # every attempt made was accepted: none came once the budget was spent
    accepted = [rec[1] for kind, rec in log if kind == "attempt"]
    assert accepted == [True] * budget
    assert rep.escapes == budget == cfg.escape_budget
    assert rep.stop_reason == "converged" and log[-1][0] == "sweep"
    # a spent budget ends no chain: the solve sweeps on to convergence
    if budget:
        assert rep.iters > rep.escape_events[-1].iteration + 1


@pytest.mark.parametrize("instance_seed", [1, 2])
def test_solve_grows_to_the_rank_at_low_density(instance_seed):
    # With escapes tried only at convergence, these instances crept at width
    # 3 until max_iter (held-out RE 0.49-0.50): the early escape reaches the
    # generating rank 4.
    gt = gen_synthetic(SynthSpec(600, 400, 4, 10.0, 0.9, instance_seed))
    cfg = SolverConfig(p=0.5, lam=20.0, init_width=2)
    F, rep = solve(gt.y_obs, cfg)
    assert rep.stop_reason == "converged" and rep.final_width == 4
    assert relative_error(F, gt.x_true, gt.test_mask) < 0.2
