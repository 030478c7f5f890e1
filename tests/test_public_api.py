import spfact

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
