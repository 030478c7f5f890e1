"""Schatten-p variational factorization toolkit.

Low-rank matrix completion by SVD-free factorized minimization of
Schatten-p quasi-norm regularized objectives, with column pruning,
rank-one escape steps, and optimality diagnostics.
"""

from .datasets import (
    SynthSpec,
    gen_synthetic,
    load_fixture,
    nmae,
    parse_movielens,
    relative_error,
    save_fixture,
    split,
)
from .diagnostics import factorized_stationarity, subgradient_check, variational_gap
from .escape import escape_decision
from .norms import (
    Factors,
    balanced_factorization,
    schatten_p_power,
    variational_product,
    variational_sum,
)
from .observed import ObservedMatrix, loss_value, masked_residual
from .solver import SolverConfig, grad_U, grad_V, objective, solve, surrogate_hessian_U
from .spectral import full_svd

__version__ = "0.1.0"

__all__ = [
    "Factors",
    "ObservedMatrix",
    "SolverConfig",
    "SynthSpec",
    "balanced_factorization",
    "escape_decision",
    "factorized_stationarity",
    "full_svd",
    "gen_synthetic",
    "grad_U",
    "grad_V",
    "load_fixture",
    "loss_value",
    "masked_residual",
    "nmae",
    "objective",
    "parse_movielens",
    "relative_error",
    "save_fixture",
    "schatten_p_power",
    "solve",
    "split",
    "subgradient_check",
    "surrogate_hessian_U",
    "variational_gap",
    "variational_product",
    "variational_sum",
]
