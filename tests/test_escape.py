import tracemalloc

import numpy as np
import pytest

from spfact import (
    Factors,
    ObservedMatrix,
    SolverConfig,
    escape_decision,
    gen_synthetic,
    objective,
    SynthSpec,
    masked_residual,
    solve,
)
from spfact import escape
from spfact.escape import _decide, attempt
from spfact.observed import adjoint_embed, predicted_values


def f_curve(tau, sigma, lam, p):
    # 1-D objective of the appended balanced pair at scale tau
    return -(tau**2) * sigma + 0.5 * tau**4 + lam * tau ** (2 * p)


def test_worked_example_accept():
    dec = _decide(3.0, 1.0, 0.5)
    assert dec.accepted
    assert dec.mu == pytest.approx(2.0)
    assert dec.tau == pytest.approx(np.sqrt(2.0))
    assert dec.descent_value == pytest.approx(-6.0 + 2.0 + np.sqrt(2.0))
    assert dec.descent_value == pytest.approx(-2.585786437626905)
    # the closed-form test value: 1 - sqrt(2)*3 + 0.5 * 2^1.5 = -1.828...
    assert 1.0 - np.sqrt(2.0) * 3.0 + 0.5 * 2.0**1.5 == pytest.approx(-1.8284271247)


def test_worked_example_reject():
    dec = _decide(3.0, 10.0, 0.5)
    assert not dec.accepted
    assert dec.tau == 0.0
    assert dec.descent_value == 0.0
    # test value 10 - 4.243 + 1.414 = 7.17 > 0
    assert 10.0 - np.sqrt(2.0) * 3.0 + 0.5 * 2.0**1.5 == pytest.approx(7.1715728752)


def test_zero_residual_rejected():
    dec = escape_decision(np.zeros((3, 3)), 1.0, 0.5)
    assert not dec.accepted
    assert dec.sigma == 0.0
    assert dec.mu == 0.0


def test_escape_decision_from_matrix():
    dec = escape_decision(np.diag([3.0, 0.5]), 1.0, 0.5)
    assert dec.sigma == pytest.approx(3.0, rel=1e-8)
    assert dec.accepted


def test_p_one_polar_condition():
    dec = _decide(5.0, 2.0, 1.0)
    assert dec.accepted
    assert dec.tau == pytest.approx(np.sqrt(3.0))
    assert dec.descent_value == pytest.approx(-0.5 * 9.0)
    # grid check of the 1-D curve at p = 1
    taus = np.arange(0.0, 5.0, 1e-4)
    vals = f_curve(taus, 5.0, 2.0, 1.0)
    assert abs(taus[np.argmin(vals)] - dec.tau) <= 1e-3
    dec2 = _decide(1.5, 2.0, 1.0)
    assert not dec2.accepted


def test_validation():
    with pytest.raises(ValueError):
        escape_decision(np.eye(2), 0.0, 0.5)
    with pytest.raises(ValueError):
        escape_decision(np.eye(2), -1.0, 0.5)
    with pytest.raises(ValueError):
        escape_decision(np.array([[np.nan]]), 1.0, 0.5)
    with pytest.raises(ValueError):
        escape_decision(np.eye(2), 1.0, 1.5)
    with pytest.raises(ValueError, match="nonnegative"):
        _decide(-1e-3, 1.0, 0.5)


def test_appended_pair_balanced_and_descending():
    # fully observed: the realized descent matches the 1-D model exactly
    rng = np.random.default_rng(0)
    Y_dense = rng.standard_normal((8, 6)) * 2.0
    Y = ObservedMatrix.from_dense(Y_dense)
    F = Factors(0.01 * rng.standard_normal((8, 2)), 0.01 * rng.standard_normal((6, 2)))
    cfg = SolverConfig(p=0.5, lam=1.0, init_width=2)
    F2, dec = attempt(Y, F, cfg)
    assert dec.accepted and not dec.rip_gap
    assert F2.width == 3
    u_new, v_new = F2.U[:, -1], F2.V[:, -1]
    assert np.linalg.norm(u_new) == pytest.approx(dec.tau, rel=1e-12)
    assert np.linalg.norm(v_new) == pytest.approx(dec.tau, rel=1e-12)
    realized = objective(Y, F2, cfg) - objective(Y, F, cfg)
    assert realized < 0
    assert realized == pytest.approx(dec.descent_value, abs=1e-9)


def test_exact_fit_rejected():
    rng = np.random.default_rng(1)
    U = rng.standard_normal((5, 2))
    V = rng.standard_normal((4, 2))
    F = Factors(U, V)
    Y = ObservedMatrix.from_dense(F.matrix())
    cfg = SolverConfig(p=0.5, lam=1.0, init_width=2)
    F2, dec = attempt(Y, F, cfg)
    assert not dec.accepted
    assert F2 is F


def test_masked_descent_within_rip_gap():
    # on masks the realized change equals the model plus
    # 0.5 tau^4 (|P(u v^T)|_F^2 - 1); bound it by mu^2 * delta with
    # delta = | |P(u v^T)|_F - 1 |
    rng = np.random.default_rng(2)
    hits = 0
    for trial in range(20):
        gt = gen_synthetic(SynthSpec(12, 10, 3, 10.0, 0.4, trial))
        Y = gt.y_obs
        F = Factors(
            0.01 * rng.standard_normal((12, 2)), 0.01 * rng.standard_normal((10, 2))
        )
        cfg = SolverConfig(p=0.5, lam=1.0, init_width=2)
        F2, dec = attempt(Y, F, cfg)
        if not dec.accepted:
            continue
        hits += 1
        u, v = F2.U[:, -1] / dec.tau, F2.V[:, -1] / dec.tau
        proj = np.linalg.norm(predicted_values(Y, Factors(u[:, None], v[:, None])))
        delta = abs(proj - 1.0)
        realized = objective(Y, F2, cfg) - objective(Y, F, cfg)
        assert realized <= dec.descent_value + 1e-9  # mask only helps
        assert abs(realized - dec.descent_value) <= dec.mu**2 * delta + 1e-9
    assert hits >= 15


def test_rollback_path_restores_factors():
    # the commit check rejects any append that does not realize a strict
    # decrease; exercise it directly with a fabricated non-descending case
    from spfact.escape import EscapeDecision
    from dataclasses import replace

    dec = EscapeDecision(sigma=1.0, mu=0.5, tau=0.1, descent_value=-0.1, accepted=True)
    rolled = replace(dec, accepted=False, tau=0.0, rip_gap=True)
    assert rolled.rip_gap and not rolled.accepted and rolled.tau == 0.0
    # accepted decisions just inside the boundary have a model value at
    # numerical zero; the verify-then-commit step guards exactly this zone
    sigma, p = 3.0, 0.5
    mu = (2 - 2 * p) / (2 - p) * sigma
    lam_edge = (mu ** (1 - p) * sigma - 0.5 * mu ** (2 - p)) * (1 - 1e-12)
    dec_edge = _decide(sigma, lam_edge, p)
    assert dec_edge.accepted
    assert f_curve(dec_edge.tau, sigma, lam_edge, p) == pytest.approx(0.0, abs=1e-9)


def test_escape_decision_sparse_matches_dense():
    rng = np.random.default_rng(3)
    gt = gen_synthetic(SynthSpec(30, 20, 3, 10.0, 0.5, 0))
    F = Factors(0.01 * rng.standard_normal((30, 2)), 0.01 * rng.standard_normal((20, 2)))
    R = masked_residual(gt.y_obs, F)
    for lam in (1.0, 1e4):
        dense = escape_decision(adjoint_embed(R), lam, 0.5)
        sparse = escape_decision(R.to_csr(), lam, 0.5)
        assert sparse.accepted == dense.accepted
        assert sparse.sigma == pytest.approx(dense.sigma, rel=1e-9)
        assert sparse.power_converged and dense.power_converged


def test_attempt_memory_stays_sparse():
    # a dense embed of the residual alone would take m * n * 8 = 96 MB
    m, n, nnz = 4000, 3000, 10000
    rng = np.random.default_rng(4)
    lin = rng.choice(m * n, size=nnz, replace=False)
    Y = ObservedMatrix(m, n, lin // n, lin % n, rng.standard_normal(nnz))
    F = Factors(0.01 * rng.standard_normal((m, 2)), 0.01 * rng.standard_normal((n, 2)))
    cfg = SolverConfig(p=0.5, lam=1.0, init_width=2)
    tracemalloc.start()
    try:
        _, dec = attempt(Y, F, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.power_converged
    assert peak < 10 * 2**20


def test_attempt_reuses_a_given_residual(monkeypatch):
    # an accepted and a rejected escape: a passed residual gives the same
    # factors and decision as the one attempt gathers itself, without a gather
    rng = np.random.default_rng(3)
    gt = gen_synthetic(SynthSpec(30, 20, 3, 10.0, 0.5, 0))
    F = Factors(0.01 * rng.standard_normal((30, 2)), 0.01 * rng.standard_normal((20, 2)))
    for lam, accepted in ((1.0, True), (1e4, False)):
        cfg = SolverConfig(p=0.5, lam=lam, init_width=2)
        F_ref, dec_ref = attempt(gt.y_obs, F, cfg)
        R = masked_residual(gt.y_obs, F)
        with monkeypatch.context() as mp:
            mp.setattr(escape, "masked_residual", None)
            F_got, dec_got = attempt(gt.y_obs, F, cfg, R)
        assert dec_got == dec_ref and dec_got.accepted == accepted
        assert np.array_equal(F_got.U, F_ref.U) and np.array_equal(F_got.V, F_ref.V)


def test_unconverged_power_iteration_rejects(monkeypatch):
    # the fully observed case that test_appended_pair_balanced_and_descending
    # accepts, with power iteration cut off after one step
    rng = np.random.default_rng(0)
    Y = ObservedMatrix.from_dense(rng.standard_normal((8, 6)) * 2.0)
    F = Factors(0.01 * rng.standard_normal((8, 2)), 0.01 * rng.standard_normal((6, 2)))
    cfg = SolverConfig(p=0.5, lam=1.0, init_width=2)
    monkeypatch.setattr(escape, "POWER_MAX_ITER", 1)
    F2, dec = attempt(Y, F, cfg)
    assert F2 is F
    assert not dec.accepted and not dec.power_converged
    assert dec.tau == 0.0 and dec.descent_value == 0.0
    assert dec.sigma > cfg.lam and not dec.rip_gap


def test_escape_decision_reads_the_patched_matvec_cap(monkeypatch):
    # the matrix whose decision test_escape_decision_from_matrix accepts
    monkeypatch.setattr(escape, "POWER_MAX_ITER", 1)
    dec = escape_decision(np.diag([3.0, 0.5]), 1.0, 0.5)
    assert not dec.accepted and not dec.power_converged


def test_escape_whose_column_prune_would_drop_is_rejected():
    # sigma = 1e-11 > lam = 1e-12 passes the p = 1 polar test with
    # tau = sqrt(sigma - lam) = 3e-6, below the default prune_thres of 1e-5,
    # so appending the pair would leave nothing after the solve's prune
    Y = ObservedMatrix.from_dense(np.diag([1.0, 1e-11]))
    F0 = Factors([[1.0], [0.0]], [[1.0], [0.0]])
    cfg = SolverConfig(p=1.0, lam=1e-12, init_width=1)
    F, dec = attempt(Y, F0, cfg)
    assert F is F0
    assert not dec.accepted and not dec.rip_gap and dec.power_converged
    assert dec.tau == 0.0 and dec.descent_value == 0.0
    assert dec.sigma == pytest.approx(1e-11)
    F, rep = solve(Y, cfg, F0)
    assert rep.escapes == 0
    assert rep.stop_reason == "escape_rejected"
    assert F.width == 1


def test_rollback_path_of_a_real_attempt():
    # residual diag(1, 0) at F; sigma = 1 just above lam = 1 - 1e-8 gives
    # tau = 1e-4 and a modeled descent of -5e-17, which the verified
    # objective does not realize in floating point
    Y = ObservedMatrix.from_dense(np.diag([1.0, 0.5]))
    F = Factors([[0.0], [np.sqrt(0.5)]], [[0.0], [np.sqrt(0.5)]])
    cfg = SolverConfig(p=1.0, lam=1.0 - 1e-8, init_width=1)
    F2, dec = attempt(Y, F, cfg)
    assert F2 is F
    assert not dec.accepted and dec.rip_gap and dec.power_converged
    assert dec.tau == 0.0
    # the rolled-back decision keeps the modeled descent it contradicted
    assert dec.descent_value == -0.5 * dec.mu * dec.mu
    assert dec.descent_value == pytest.approx(-5e-17, rel=1e-6)
