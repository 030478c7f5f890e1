"""Property tests of solve on small degenerate inputs.

Hypothesis draws the geometry (m or n may be 1), an observed fraction from
1e-3 to 1 with at least one observation, an optional empty row and empty
column, the Schatten exponent p from 1e-3 to 1, and lam from 0 up to a
value that prunes every column. Every solve must end with finite factors,
an objective that never rises between escapes and falls at each accepted
escape, and a documented stop reason; the collapsing lam must end in
"collapse". A second strategy, width-1 starts on mostly observed low-rank
matrices with a small lam, makes accepted escapes common, and its solves
go through the same checks; explicit examples pin inputs that accept an
escape at the early stall level, one that accepts a chained escape (on the
sweep right after an accepted one) and one whose first escape comes when the
objective stalls before the iterate does, whatever Hypothesis draws.
"""

import warnings
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings, strategies as st

from spfact import ObservedMatrix, SolverConfig, solve
from spfact.solver import EARLY_ESCAPE_FACTOR

STOP_REASONS = {"converged", "escape_rejected", "collapse", "escape_unconverged", "max_iter"}
COLLAPSE_LAM = 1e6


@st.composite
def instances(draw):
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 7))
    frac = draw(st.floats(1e-3, 1.0))
    empty_row = m > 1 and draw(st.booleans())
    empty_col = n > 1 and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.arange(m - 1 if empty_row else m)
    cols = np.arange(n - 1 if empty_col else n)
    lin = (rows[:, None] * n + cols[None, :]).ravel()
    k = max(1, int(round(frac * lin.size)))
    lin = rng.choice(lin, size=k, replace=False)
    Y = ObservedMatrix(m, n, lin // n, lin % n, rng.standard_normal(k))
    p = draw(st.floats(1e-3, 1.0))
    lam = draw(st.sampled_from([0.0, 0.1, 1.0, COLLAPSE_LAM]))
    # lam = 0 keeps the surrogate Hessian nonsingular only when the width
    # fits inside both dimensions
    width = draw(st.integers(1, min(m, n) if lam == 0.0 else 3))
    cfg = SolverConfig(
        p=p, lam=lam, init_width=width, max_iter=200, seed=draw(st.integers(0, 9))
    )
    return Y, cfg


@st.composite
def escape_instances(draw):
    m = draw(st.integers(3, 8))
    n = draw(st.integers(3, 8))
    rank = draw(st.integers(2, min(m, n)))
    frac = draw(st.floats(0.6, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    lin = rng.choice(m * n, size=int(round(frac * m * n)), replace=False)
    Y = ObservedMatrix(m, n, lin // n, lin % n, X.ravel()[lin])
    cfg = SolverConfig(
        p=draw(st.floats(0.2, 1.0)),
        lam=draw(st.sampled_from([0.05, 0.2, 0.5])),
        init_width=1,
        escape_check_max=3,
        max_iter=300,
        seed=draw(st.integers(0, 9)),
    )
    return Y, cfg


def early_escape_case(seed, m, n, p, lam):
    # an escape_instances input: rank 3, 80% observed, start seed 0
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))
    lin = rng.choice(m * n, size=int(round(0.8 * m * n)), replace=False)
    Y = ObservedMatrix(m, n, lin // n, lin % n, X.ravel()[lin])
    return Y, SolverConfig(p=p, lam=lam, init_width=1, escape_check_max=3, max_iter=300)


# Each accepts its first escape at the early stall level; the first also
# rejects an early attempt and then one at convergence.
EARLY_ESCAPE_CASES = [
    early_escape_case(0, 6, 5, 0.5, 0.05),
    early_escape_case(2, 7, 6, 1.0, 0.2),
    early_escape_case(0, 7, 6, 0.3, 0.5),
]
# Accepts a chained escape, rejects the next chained attempt, then rejects
# the early attempt at the stall level and the one at convergence.
CHAINED_ESCAPE_CASE = early_escape_case(1, 8, 7, 0.5, 0.5)
# Accepts its first escape at the objective stall level: that sweep lowers the
# objective by at most conv_tol, relative, while its iterate still moves by
# more than EARLY_ESCAPE_FACTOR * conv_tol.
OBJECTIVE_STALL_CASE = early_escape_case(3, 7, 5, 1.0, 0.5)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(instances())
def test_solve_on_degenerate_inputs(case):
    Y, cfg = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the all-pruned notice
        F, rep = solve(Y, cfg)
    assert np.isfinite(F.U).all() and np.isfinite(F.V).all()
    assert rep.stop_reason in STOP_REASONS
    trace = rep.objective_trace
    assert np.isfinite(trace).all()
    cuts = [e.trace_index for e in rep.escape_events]
    for lo, hi in zip([0] + cuts, cuts + [trace.size]):
        seg = trace[lo:hi]
        assert (np.diff(seg) <= 1e-12 * np.abs(seg[:-1])).all()
    # an accepted escape strictly lowers the objective
    for i in cuts:
        assert trace[i] < trace[i - 1]
    # an untrusted top pair outranks the collapse in the report
    collapsed = F.width == 1 and not F.U.any() and not F.V.any()
    expect_collapse = collapsed and rep.stop_reason != "escape_unconverged"
    assert (rep.stop_reason == "collapse") == expect_collapse
    if cfg.lam == COLLAPSE_LAM:
        assert rep.stop_reason == "collapse"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(escape_instances())
@example(EARLY_ESCAPE_CASES[0])
@example(EARLY_ESCAPE_CASES[1])
@example(EARLY_ESCAPE_CASES[2])
@example(CHAINED_ESCAPE_CASE)
@example(OBJECTIVE_STALL_CASE)
def test_solve_across_accepted_escapes(case):
    # the checks above, on inputs where most solves accept an escape
    test_solve_on_degenerate_inputs.hypothesis.inner_test(case)


def test_pinned_examples_accept_an_early_escape():
    for Y, cfg in EARLY_ESCAPE_CASES:
        _, rep = solve(Y, cfg)
        first = rep.escape_attempts[0]
        assert first.early and first.decision.accepted


def test_pinned_example_accepts_a_chained_escape():
    Y, cfg = CHAINED_ESCAPE_CASE
    _, rep = solve(Y, cfg)
    its = [a.iteration for a in rep.escape_attempts]
    accepted = [a.decision.accepted for a in rep.escape_attempts]
    assert accepted[:3] == [True, True, False] and its[1:3] == [its[0] + 1, its[0] + 2]
    assert its[3] > its[2] + 1 and rep.escape_attempts[3].early


def test_pinned_example_escapes_at_the_objective_stall():
    Y, cfg = OBJECTIVE_STALL_CASE
    _, rep = solve(Y, cfg)
    first = rep.escape_attempts[0]
    assert first.early and first.decision.accepted
    # the sweeps up to that attempt, replayed without escapes
    t = first.iteration
    trace = rep.objective_trace
    assert trace[t - 1] - trace[t] <= cfg.conv_tol * trace[t]
    X = [solve(Y, replace(cfg, escape_enabled=False, max_iter=k))[0].matrix() for k in (t - 1, t)]
    rel = np.linalg.norm(X[1] - X[0]) / np.linalg.norm(X[0])
    assert rel >= EARLY_ESCAPE_FACTOR * cfg.conv_tol


def test_pinned_examples_stay_within_the_escape_budget():
    # every cap up to the pinned one, chained escapes included
    for Y, cfg in EARLY_ESCAPE_CASES + [CHAINED_ESCAPE_CASE]:
        for cap in range(cfg.escape_check_max + 1):
            capped = replace(cfg, escape_check_max=cap)
            _, rep = solve(Y, capped)
            accepted = sum(a.decision.accepted for a in rep.escape_attempts)
            assert accepted == rep.escapes <= capped.escape_budget == cap
