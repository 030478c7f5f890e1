import numpy as np
import pytest

from spfact import (
    Factors,
    ObservedMatrix,
    SynthSpec,
    balanced_factorization,
    gen_synthetic,
    load_fixture,
    nmae,
    parse_movielens,
    relative_error,
    save_fixture,
    split,
)


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(10, 10, 11, 10.0, 0.2, 0)
    with pytest.raises(ValueError):
        SynthSpec(10, 10, 2, 10.0, 1.0, 0)
    with pytest.raises(ValueError):
        SynthSpec(0, 10, 1, 10.0, 0.2, 0)


def test_gen_reproducible_bitwise():
    spec = SynthSpec(20, 15, 3, 12.0, 0.3, 42)
    a = gen_synthetic(spec)
    b = gen_synthetic(spec)
    assert np.array_equal(a.x_true, b.x_true)
    assert np.array_equal(a.y_obs.val, b.y_obs.val)
    assert np.array_equal(a.test_mask[0], b.test_mask[0])


def test_gen_mask_matches_sorted_permutation_recipe():
    # the observed and held-out index sets equal the sorted halves of the
    # seeded permutation, bit for bit (noiseless, so values are x_true's)
    spec = SynthSpec(23, 17, 3, float("inf"), 0.7, 5)
    g = gen_synthetic(spec)
    rng_mask = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(3)[2])
    k = int(round((1.0 - spec.missing_rate) * spec.m * spec.n))
    perm = rng_mask.permutation(spec.m * spec.n)
    obs_lin, test_lin = np.sort(perm[:k]), np.sort(perm[k:])
    assert np.array_equal(g.y_obs.row, obs_lin // spec.n)
    assert np.array_equal(g.y_obs.col, obs_lin % spec.n)
    assert np.array_equal(g.y_obs.val, g.x_true.ravel()[obs_lin])
    rows, cols = g.test_mask
    assert rows.dtype == cols.dtype == np.int64
    assert np.array_equal(rows, test_lin // spec.n)
    assert np.array_equal(cols, test_lin % spec.n)


def test_gen_rank_is_exact():
    gt = gen_synthetic(SynthSpec(30, 25, 5, 10.0, 0.4, 1))
    s = np.linalg.svd(gt.x_true, compute_uv=False)
    assert np.sum(s > 1e-10 * s[0]) == 5


def test_gen_full_observation():
    gt = gen_synthetic(SynthSpec(8, 9, 2, 10.0, 0.0, 2))
    assert gt.y_obs.nnz == 72
    assert gt.test_mask[0].size == 0


def test_gen_noiseless_sentinel():
    gt = gen_synthetic(SynthSpec(10, 10, 2, float("inf"), 0.5, 3))
    assert np.array_equal(
        gt.y_obs.val, gt.x_true[gt.y_obs.row, gt.y_obs.col]
    )


def test_gen_snr_calibration():
    spec = SynthSpec(100, 100, 5, 15.0, 0.4, 7)
    gt = gen_synthetic(spec)
    # reconstruct noise on the observed entries
    noise = gt.y_obs.val - gt.x_true[gt.y_obs.row, gt.y_obs.col]
    sig_power = np.sum(gt.x_true**2) / (100 * 100)
    noise_power = np.mean(noise**2)
    snr_emp = 10 * np.log10(sig_power / noise_power)
    assert abs(snr_emp - 15.0) <= 0.5


def test_gen_observed_count():
    gt = gen_synthetic(SynthSpec(10, 10, 2, 10.0, 0.37, 5))
    assert gt.y_obs.nnz == round(0.63 * 100)
    # observed and held-out partition the grid
    lin_obs = gt.y_obs.row * 10 + gt.y_obs.col
    lin_test = gt.test_mask[0] * 10 + gt.test_mask[1]
    assert np.array_equal(np.sort(np.concatenate([lin_obs, lin_test])), np.arange(100))


def test_parse_movielens_line_format(tmp_path):
    f = tmp_path / "u.data"
    f.write_text("196\t242\t3\t881250949\n186\t302\t3\t891717742\n")
    obs = parse_movielens(f)
    assert obs.shape == (196, 302)
    assert obs.nnz == 2
    lin = set(zip(obs.row.tolist(), obs.col.tolist()))
    assert (195, 241) in lin and (185, 301) in lin
    assert obs.val.tolist() == [3.0, 3.0]


def test_parse_movielens_empty(tmp_path):
    f = tmp_path / "empty.data"
    f.write_text("")
    with pytest.raises(ValueError, match="no observations"):
        parse_movielens(f)


def test_parse_movielens_duplicate(tmp_path):
    f = tmp_path / "dup.data"
    f.write_text("1\t2\t3\t0\n1\t2\t4\t0\n")
    with pytest.raises(ValueError, match=r"duplicate.*user=1.*item=2"):
        parse_movielens(f)


def test_parse_movielens_malformed(tmp_path):
    f = tmp_path / "bad.data"
    f.write_text("1\t2\t3\t0\nnot a line\n")
    with pytest.raises(ValueError, match=":2"):
        parse_movielens(f)
    f.write_text("1\t2\tthree\t0\n")
    with pytest.raises(ValueError, match=":1"):
        parse_movielens(f)


def test_split_even_and_deterministic():
    obs = ObservedMatrix(5, 4, np.arange(10) // 4, np.arange(10) % 4, np.arange(10.0))
    ms = split(obs, 0.5, seed=3)
    assert ms.train.nnz == 5 and ms.test.nnz == 5
    ms2 = split(obs, 0.5, seed=3)
    assert np.array_equal(ms.train.val, ms2.train.val)
    # union reconstructs the observation set
    lin = np.sort(
        np.concatenate(
            [ms.train.row * 4 + ms.train.col, ms.test.row * 4 + ms.test.col]
        )
    )
    assert np.array_equal(lin, np.sort(obs.row * 4 + obs.col))
    with pytest.raises(ValueError):
        split(obs, 1.0, seed=0)


def test_relative_error_trivial_cases():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 5))
    mask = (np.array([0, 1, 2]), np.array([4, 3, 2]))
    Fb = balanced_factorization(X, 5)
    assert relative_error(Fb, X, mask) <= 1e-9
    assert relative_error(np.zeros_like(X), X, mask) == pytest.approx(1.0)
    assert relative_error(2.0 * X, X, mask) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="empty"):
        relative_error(X, X, (np.array([]), np.array([])))
    with pytest.raises(ValueError, match="zero"):
        relative_error(X, np.zeros_like(X), mask)


def test_relative_error_rejects_wrong_shape():
    rng = np.random.default_rng(0)
    F = Factors(rng.standard_normal((5, 2)), rng.standard_normal((3, 2)))
    X = rng.standard_normal((3, 3))
    with pytest.raises(ValueError, match="shape"):
        relative_error(F, X, (np.array([0, 1, 2]), np.array([2, 1, 0])))


def test_nmae_cases():
    test = ObservedMatrix(2, 1, [0, 1], [0, 0], [1.0, 5.0])
    # constant prediction 3 on ratings {1, 5} with range [1, 5] -> 0.5
    F = Factors(np.array([[3.0], [3.0]]), np.array([[1.0]]))
    assert nmae(F, test, 1.0, 5.0) == pytest.approx(0.5)
    # perfect prediction -> 0
    Fp = Factors(np.array([[1.0], [5.0]]), np.array([[1.0]]))
    assert nmae(Fp, test, 1.0, 5.0) == 0.0
    # off by exactly the range -> 1
    Fo = Factors(np.array([[5.0], [9.0]]), np.array([[1.0]]))
    assert nmae(Fo, test, 1.0, 5.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        nmae(F, test, 5.0, 1.0)
    empty = ObservedMatrix(2, 1, [], [], [])
    with pytest.raises(ValueError, match="empty"):
        nmae(F, empty, 1.0, 5.0)


def test_nmae_rejects_wrong_shape():
    test = ObservedMatrix(3, 3, [0, 1, 2], [0, 1, 2], [1.0, 5.0, 3.0])
    F = Factors(np.full((5, 1), 3.0), np.ones((3, 1)))
    with pytest.raises(ValueError, match="shape"):
        nmae(F, test, 1.0, 5.0)


def test_fixture_round_trip(tmp_path):
    spec = SynthSpec(12, 9, 2, 11.5, 0.25, 13)
    gt = gen_synthetic(spec)
    path = tmp_path / "inst.txt"
    save_fixture(path, spec, gt.y_obs)
    spec2, obs2, truth2 = load_fixture(path)
    assert spec2 == spec
    assert np.array_equal(obs2.val, gt.y_obs.val)
    assert truth2 is not None
    assert np.array_equal(truth2.x_true, gt.x_true)


def test_fixture_noiseless_inf_snr(tmp_path):
    spec = SynthSpec(6, 6, 1, float("inf"), 0.2, 4)
    gt = gen_synthetic(spec)
    path = tmp_path / "inst.txt"
    save_fixture(path, spec, gt.y_obs)
    spec2, _, truth2 = load_fixture(path)
    assert spec2.snr_db == float("inf")
    assert truth2 is not None


def test_fixture_foreign_data_has_no_truth(tmp_path):
    path = tmp_path / "foreign.txt"
    path.write_text("3 3 1 10.0 0.0 7\n0 0 1.5\n1 1 2.5\n2 2 3.5\n")
    spec, obs, truth = load_fixture(path)
    assert obs.nnz == 3
    assert truth is None  # triplets do not match the seeded generator


def test_fixture_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n")
    with pytest.raises(ValueError, match="header"):
        load_fixture(path)


def test_fixture_names_the_malformed_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3 1 10.0 0.5 0\n0 1 2.5\n1 x 2.5\n")
    with pytest.raises(ValueError, match=r"bad\.txt:3: .*'1 x 2\.5'"):
        load_fixture(path)
    path.write_text("2 3 one 10.0 0.5 0\n0 1 2.5\n")
    with pytest.raises(ValueError, match=r"bad\.txt:1: .*header"):
        load_fixture(path)
