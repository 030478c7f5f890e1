"""Block successive upper-bound minimization (BSUM) completion solver.

Minimizes  0.5 |P(Y - U V^T)|_F^2 + lam * sum_i c_i^p  over factor pairs,
where c_i = (|u_i|^2 + |v_i|^2)/2 and P masks to the observed set. Each
sweep minimizes a separable quadratic upper bound per factor block:

    U+ = U - grad_U * inv(V^T V + lam W),   W = diag(p c_i^(p-1)),

then the same for V using the already updated U (Gauss-Seidel order).
The masked row Gram is dominated by V^T V and the linearized concave
regularizer upper-bounds c^p, so a sweep never increases the objective.
Columns whose norm falls under a threshold are pruned after each sweep,
which keeps the p-1 < 0 exponents away from zero and makes the final
width rank-revealing. Optionally, a rank-one escape step (see escape.py)
appends a scaled top singular pair of the embedded residual and iteration
resumes. The escape has three triggers: chained, on the sweep right after
an accepted escape, whatever the relative change; early, the first sweep
since the last accepted escape that reaches the stall, where the relative
change falls below EARLY_ESCAPE_FACTOR * conv_tol or the objective's
relative decrease is at most conv_tol; and at convergence (relative change
below conv_tol). A chained or early rejection does not stop the solve; a
rejection at convergence does.
"""

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import escape as _escape
from .norms import Factors, check_p, column_energies, kept_columns, objective_value
from .observed import masked_residual

# A width that the next escape will grow need not be polished to conv_tol:
# the escape is first tried once the relative change falls below this
# multiple of conv_tol, or once a sweep lowers the objective by at most
# conv_tol, relative, if that comes first. A factor of 100 accepted a
# spurious column on the benchmark's escape_sparse instance (1500x1000,
# rank 3, 4% observed).
EARLY_ESCAPE_FACTOR = 10.0


@dataclass(frozen=True)
class SolverConfig:
    """Solver hyperparameters.

    lam = 0 is allowed for pure least-squares runs; the regularizer and
    its weights vanish, and rank-one escapes are skipped (the escape test
    needs lam > 0). escape_check_max bounds the number of successful
    escapes per solve and defaults to init_width; escape_budget is that
    bound, or 0 when escapes are off or lam = 0.
    """

    p: float
    lam: float
    init_width: int
    prune_thres: float = 1e-5
    max_iter: int = 1000
    conv_tol: float = 1e-4
    escape_enabled: bool = True
    escape_check_max: int | None = None
    seed: int = 0

    def __post_init__(self):
        check_p(self.p)
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must lie in [0, inf), got {self.lam}")
        if self.init_width < 1:
            raise ValueError("init_width must be at least 1")
        if not 0 < self.prune_thres < np.inf:
            raise ValueError(f"prune_thres must lie in (0, inf), got {self.prune_thres}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0 < self.conv_tol < np.inf:
            raise ValueError(f"conv_tol must lie in (0, inf), got {self.conv_tol}")
        if self.escape_check_max is not None and self.escape_check_max < 0:
            raise ValueError("escape_check_max must be nonnegative")

    @property
    def escape_budget(self):
        if not (self.escape_enabled and self.lam > 0):
            return 0
        cap = self.escape_check_max
        return self.init_width if cap is None else cap


class EscapeEvent(NamedTuple):
    iteration: int
    trace_index: int
    sigma: float
    tau: float


class EscapeAttempt(NamedTuple):
    iteration: int
    early: bool  # chained or at the early stall, not at convergence
    decision: _escape.EscapeDecision


@dataclass
class SolveReport:
    """stop_reason is "converged" (stagnated with no escape left to try),
    "escape_rejected" (at convergence, the escape test, its verified
    descent or the prune of its appended column rejected the step),
    "collapse" (prune removed every column and the final iterate is the
    retained zero column), "escape_unconverged" (at convergence, the
    seeded restarted Lanczos bidiagonalization for the escape's top pair
    hit its matvec cap; it takes precedence over "collapse") or
    "max_iter"; converged is False for the last two. A rejected chained or
    early attempt sets no stop reason: sweeping goes on.

    escape_events holds the accepted escapes; escape_attempts holds every
    top-pair attempt, chained, early and rejected ones included, with its
    decision. An attempt's early flag is set when its relative change is at
    or above conv_tol: the attempt was chained, or made at the early stall,
    where the relative change is below EARLY_ESCAPE_FACTOR * conv_tol or the
    sweep lowered the objective by at most conv_tol, relative. A chained
    attempt is the one at the iteration after an accepted escape's.
    """

    final_width: int
    objective_trace: np.ndarray
    iters: int
    stop_reason: str
    escape_events: list = field(default_factory=list)
    escape_attempts: list = field(default_factory=list)

    @property
    def converged(self):
        return self.stop_reason in ("converged", "escape_rejected", "collapse")

    @property
    def escapes(self):
        return len(self.escape_events)


def objective(Y, F, cfg):
    """Masked half squared loss plus lam * sum_i c_i^p."""
    return objective_value(masked_residual(Y, F).val, column_energies(F), cfg.lam, cfg.p)


def _weights(c, p):
    # Diagonal of W from the column energies c: p * c_i^(p-1). Undefined at
    # c_i = 0, hence the prune-first contract on all gradient/Hessian
    # evaluations.
    if (c == 0.0).any():
        raise ValueError("zero-energy column present; prune before this evaluation")
    return p * c ** (p - 1.0)


def _gradient(RB, A, w, lam):
    # Block A's gradient -RB + lam A W, formed in RB's buffer. RB is the
    # masked residual times the fixed block: (A, RB) is (U, P*(residual) V)
    # for the U block and (V, P*(residual)^T U) for the V block.
    G = np.negative(RB, out=RB)
    if lam:
        T = A * w
        T *= lam
        G += T
    return G


def _hessian(B, w, lam, side):
    H = B.T @ B
    if lam:
        H[np.diag_indices_from(H)] += lam * w
    if np.linalg.eigvalsh(H)[0] < 1e-12 * np.trace(H):
        raise np.linalg.LinAlgError(
            f"surrogate Hessian for {side} is numerically singular "
            "(prune degenerate columns or use lam > 0)"
        )
    return H


def _block_update(RB, A, B, w, lam, side):
    # Minimizer of the block's quadratic surrogate, A - G H^-1, with the
    # difference written into the buffer of G H^-1.
    G = _gradient(RB, A, w, lam)
    step = np.linalg.solve(_hessian(B, w, lam, side), G.T).T
    return np.subtract(A, step, out=step)


def grad_U(Y, F, cfg):
    """Gradient of the objective in U: -P*(residual) V + lam U W."""
    w = _weights(column_energies(F), cfg.p)
    return _gradient(masked_residual(Y, F).to_csr() @ F.V, F.U, w, cfg.lam)


def grad_V(Y, F, cfg):
    """Gradient of the objective in V: -P*(residual)^T U + lam V W."""
    w = _weights(column_energies(F), cfg.p)
    return _gradient(masked_residual(Y, F).to_csr().T @ F.U, F.V, w, cfg.lam)


def surrogate_hessian_U(F, cfg):
    """d x d block Hessian of the U-surrogate: V^T V + lam W."""
    return _hessian(F.V, _weights(column_energies(F), cfg.p), cfg.lam, "U")


def surrogate_hessian_V(F, cfg):
    """d x d block Hessian of the V-surrogate: U^T U + lam W."""
    return _hessian(F.U, _weights(column_energies(F), cfg.p), cfg.lam, "V")


def bsum_step(Y, F, cfg, R=None, c=None):
    """One Gauss-Seidel sweep: surrogate-minimizing U update, then V.

    R, the masked residual at F, and c, the column energies of F, spare
    their recomputation when the caller holds them. The sweep drops each
    residual once it has formed that residual's product with the fixed
    factor, so a caller that hands R over without keeping a reference
    holds one |Z|-length residual at a time.
    """
    c = column_energies(F) if c is None else c
    # Each residual and each product is released as soon as it is used.
    RB = (masked_residual(Y, F) if R is None else R).to_csr() @ F.V
    del R
    F1 = Factors(_block_update(RB, F.U, F.V, _weights(c, cfg.p), cfg.lam, "U"), F.V)
    del RB
    RB = masked_residual(Y, F1).to_csr().T @ F1.U
    V = _block_update(RB, F1.V, F1.U, _weights(column_energies(F1), cfg.p), cfg.lam, "V")
    del RB
    return Factors(F1.U, V)


def prune(F, thres):
    """Drop every column with |u_i| <= thres or |v_i| <= thres.

    If that would remove everything, a single zero column is kept so the
    factor pair stays well-formed; a RuntimeWarning flags the collapse.
    """
    keep = kept_columns(F.U, F.V, thres)
    if keep.all():
        return F
    if not keep.any():
        warnings.warn(
            "all factor columns pruned; retaining a single zero column",
            RuntimeWarning,
            stacklevel=2,
        )
        m, n = F.shape
        return Factors(np.zeros((m, 1)), np.zeros((n, 1)))
    return Factors(F.U[:, keep], F.V[:, keep])


def random_factors(Y, cfg):
    """Gaussian init with |U0 V0^T|_F matched to the data scale.

    The target is |Y on Z|_F * sqrt(m n / |Z|), an estimate of the full
    Frobenius norm of Y; i.i.d. N(0, a^2) entries with
    a = sqrt(target) / (m n d)^(1/4) give E |U0 V0^T|_F^2 = target^2.
    """
    rng = np.random.default_rng(cfg.seed)
    m, n = Y.shape
    d = cfg.init_width
    target = np.linalg.norm(Y.val) * np.sqrt(m * n / max(Y.nnz, 1))
    a = np.sqrt(target) / (m * n * d) ** 0.25
    return Factors(a * rng.standard_normal((m, d)), a * rng.standard_normal((n, d)))


def _frob_inner(Fa, Fb):
    # <Ua Va^T, Ub Vb^T> without forming the dense products.
    return float(np.sum((Fa.U.T @ Fb.U) * (Fa.V.T @ Fb.V)))


def _settle(Y, F, cfg):
    # Everything solve reads at the pruned iterate F: the masked residual R
    # (in a one-slot list the caller pops to hand R on without keeping it),
    # the column energies c (taken first, so their temporaries are gone
    # before the gather), the objective and |U V^T|_F^2.
    c = column_energies(F)
    R = masked_residual(Y, F)
    return [R], c, objective_value(R.val, c, cfg.lam, cfg.p), _frob_inner(F, F)


def solve(Y, cfg, F0=None):
    """Run BSUM sweeps with pruning until the reconstruction stagnates.

    Convergence fires when |X_t+1 - X_t|_F / |X_t|_F < conv_tol (the
    denominator is replaced by 1 when the iterate is the zero matrix).
    With escapes enabled and budget left, a rank-one escape is attempted
    on three triggers. Chained: the sweep right after an accepted escape
    ends in an attempt whatever its relative change, so a width that the
    last escape showed to be too small is not polished first. Early: the
    first sweep since the last accepted escape that reaches the stall, at
    most once between accepted escapes. The stall has two levels: the
    relative change falls below EARLY_ESCAPE_FACTOR * conv_tol, or the
    sweep lowers the objective by at most conv_tol times its new value
    (the objective often goes flat while the iterate still creeps). Both
    levels share the one early attempt; a chained attempt made at the stall
    is that early attempt, and one made above it leaves it available. A
    rejected chained or early attempt leaves F as it is and sweeping goes
    on. At convergence: each time the test fires, also on a chained
    sweep; a rejection (or an exhausted budget) terminates the solve. An
    accepted escape on any trigger appends a column and iteration
    resumes. The report's stop_reason records what ended the solve, and
    reads "collapse" when prune left only the retained zero column.

    Returns (Factors, SolveReport). The report's objective trace has one
    entry for the initial point, one per sweep, and one per accepted
    escape; escape_events carries the trace index of each escape entry.
    """
    if Y.nnz == 0:
        raise ValueError("observation set is empty")
    if F0 is None:
        F = random_factors(Y, cfg)
    else:
        if F0.width != cfg.init_width:
            raise ValueError(
                f"initial width {F0.width} does not match cfg.init_width {cfg.init_width}"
            )
        F = F0  # the first gather checks its shape
    # Each iterate is pruned once and settled once, and the previous one is
    # released before the gather at the new one, so the gather holds one
    # factor pair. A collapsed iterate (all energies zero) is not swept: it
    # repeats its trace entry with relative change 0.
    F = prune(F, cfg.prune_thres)
    held, c, obj, self_new = _settle(Y, F, cfg)
    trace = [obj]
    events, attempts = [], []
    tried_early = False  # an early stall attempt since the last accepted escape
    stop_reason = "max_iter"
    for t in range(1, cfg.max_iter + 1):
        rel = 0.0
        if c.max() > 0.0:
            F_old, self_old = F, self_new
            F = prune(bsum_step(Y, F, cfg, held.pop(), c), cfg.prune_thres)
            cross = _frob_inner(F, F_old)
            del F_old
            held, c, obj, self_new = _settle(Y, F, cfg)
            d2 = self_new + self_old - 2.0 * cross
            den = np.sqrt(max(self_old, 0.0))
            rel = np.sqrt(max(d2, 0.0)) / (den if den > 0.0 else 1.0)
        trace.append(obj)
        early = bool(rel >= cfg.conv_tol)
        stall = (
            rel < EARLY_ESCAPE_FACTOR * cfg.conv_tol
            or trace[-2] - obj <= cfg.conv_tol * obj
        )
        chained = bool(events) and events[-1].iteration == t - 1
        if early and (
            len(events) >= cfg.escape_budget
            or not (chained or (stall and not tried_early))
        ):
            continue
        if len(events) >= cfg.escape_budget:
            stop_reason = "converged"
            break
        # A rejected escape returns F itself; an accepted one replaces it.
        # attempt takes the held residual out of its list and puts it back
        # on a rejection made before its verifying gather.
        F, dec = _escape.attempt(Y, F, cfg, held)
        attempts.append(EscapeAttempt(t, early, dec))
        if not dec.accepted:
            if early:
                tried_early = tried_early or stall
                held = held or [masked_residual(Y, F)]  # gone after a rollback
                continue
            stop_reason = (
                "escape_rejected" if dec.power_converged else "escape_unconverged"
            )
            break
        tried_early = False
        F = prune(F, cfg.prune_thres)
        held, c, obj, self_new = _settle(Y, F, cfg)
        trace.append(obj)
        events.append(EscapeEvent(t, len(trace) - 1, dec.sigma, dec.tau))
    if not c.max() > 0.0 and stop_reason != "escape_unconverged":
        stop_reason = "collapse"

    return F, SolveReport(
        final_width=F.width, objective_trace=np.asarray(trace), iters=t,
        stop_reason=stop_reason, escape_events=events, escape_attempts=attempts,
    )
