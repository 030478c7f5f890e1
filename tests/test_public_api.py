import os
import subprocess
import sys
from pathlib import Path

import spfact

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC_NAMES = """
    SynthSpec gen_synthetic load_fixture save_fixture parse_movielens split
    relative_error nmae
    ObservedMatrix masked_residual loss_value
    Factors balanced_factorization schatten_p_power variational_product variational_sum
    SolverConfig solve objective grad_U grad_V surrogate_hessian_U
    escape_decision full_svd factorized_stationarity subgradient_check variational_gap
""".split()


def test_public_names_pinned_and_resolvable():
    assert len(PUBLIC_NAMES) == 27
    assert sorted(spfact.__all__) == sorted(PUBLIC_NAMES)
    namespace = {}
    exec("from spfact import *", namespace)
    for name in PUBLIC_NAMES:
        assert callable(getattr(spfact, name))
        assert namespace[name] is getattr(spfact, name)


def test_import_loads_no_heavy_module():
    # `import spfact` is the setup cost of every run; these modules each add
    # 0.05-0.4 s to it and nothing that `import spfact` loads needs them
    heavy = ["scipy.linalg", "scipy.sparse.linalg", "scipy.optimize", "spfact.cli"]
    probe = f"import sys, spfact; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert out.strip() == "[]"
