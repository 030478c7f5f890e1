import tracemalloc

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
    # NaN is no SNR; inf is the noiseless sentinel and stays accepted
    with pytest.raises(ValueError, match="snr_db"):
        SynthSpec(10, 10, 2, float("nan"), 0.2, 0)
    assert SynthSpec(10, 10, 2, float("inf"), 0.2, 0).snr_db == float("inf")


def test_gen_reproducible_bitwise():
    spec = SynthSpec(20, 15, 3, 12.0, 0.3, 42)
    a = gen_synthetic(spec)
    b = gen_synthetic(spec)
    assert np.array_equal(a.x_true, b.x_true)
    assert np.array_equal(a.y_obs.val, b.y_obs.val)
    assert np.array_equal(a.test_mask, b.test_mask)


def test_gen_mask_matches_sorted_permutation_recipe():
    # the observed and held-out index sets equal the sorted halves of the
    # seeded permutation, and the values are those of the dense noisy
    # matrix x_true + sqrt(noise_var) Z, bit for bit (noiseless and noisy)
    for snr_db in (float("inf"), 10.0):
        spec = SynthSpec(23, 17, 3, snr_db, 0.7, 5)
        g = gen_synthetic(spec)
        _, rng_noise, rng_mask = map(
            np.random.default_rng, np.random.SeedSequence(spec.seed).spawn(3)
        )
        k = int(round((1.0 - spec.missing_rate) * spec.m * spec.n))
        perm = rng_mask.permutation(spec.m * spec.n)
        obs_lin, test_lin = np.sort(perm[:k]), np.sort(perm[k:])
        assert np.array_equal(g.y_obs.row, obs_lin // spec.n)
        assert np.array_equal(g.y_obs.col, obs_lin % spec.n)
        y_full = g.x_true
        if snr_db != float("inf"):
            signal = np.sum(g.x_true * g.x_true)
            noise_var = signal / (spec.m * spec.n * 10.0 ** (snr_db / 10.0))
            Z = rng_noise.standard_normal((spec.m, spec.n))
            y_full = g.x_true + np.sqrt(noise_var) * Z
        assert g.y_obs.val.tobytes() == y_full.ravel()[obs_lin].tobytes()
        assert g.test_mask.dtype == bool
        assert g.test_mask.shape == (spec.m, spec.n)
        assert np.array_equal(np.flatnonzero(g.test_mask), test_lin)


def test_gen_peak_memory_is_bounded():
    # x_true and the noise draw take 2 m n doubles and the masks m n / 4;
    # a held-out index pair (about 2 m n doubles at 95% missing) or a dense
    # noisy copy of x_true on top exceeds the bound
    spec = SynthSpec(1200, 1000, 5, 10.0, 0.95, 3)
    tracemalloc.start()
    try:
        gen_synthetic(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * spec.m * spec.n * 8


def test_gen_rank_is_exact():
    gt = gen_synthetic(SynthSpec(30, 25, 5, 10.0, 0.4, 1))
    s = np.linalg.svd(gt.x_true, compute_uv=False)
    assert np.sum(s > 1e-10 * s[0]) == 5


def test_gen_full_observation():
    gt = gen_synthetic(SynthSpec(8, 9, 2, 10.0, 0.0, 2))
    assert gt.y_obs.nnz == 72
    assert not gt.test_mask.any()


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
    lin_test = np.flatnonzero(gt.test_mask)
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


def test_parse_movielens_skips_blank_lines(tmp_path):
    f = tmp_path / "u.data"
    f.write_text("\n2\t3\t4\t0\n  \n1\t1\t5\t0\n\n")
    obs = parse_movielens(f)
    assert obs.shape == (2, 3)
    assert obs.val.tolist() == [5.0, 4.0]


@pytest.mark.parametrize("line", ["0\t2\t3\t0", "1\t-2\t3\t0"])
def test_parse_movielens_rejects_a_non_positive_id(tmp_path, line):
    f = tmp_path / "u.data"
    f.write_text("1\t1\t5\t0\n" + line + "\n")
    with pytest.raises(ValueError, match=":2: ids must be 1-based positive"):
        parse_movielens(f)


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
    mask = np.zeros(X.shape, dtype=bool)
    mask[[0, 1, 2], [4, 3, 2]] = True
    Fb = balanced_factorization(X, 5)
    assert relative_error(Fb, X, mask) <= 1e-9
    assert relative_error(np.zeros_like(X), X, mask) == pytest.approx(1.0)
    assert relative_error(2.0 * X, X, mask) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="empty"):
        relative_error(X, X, np.zeros(X.shape, dtype=bool))
    with pytest.raises(ValueError, match="zero"):
        relative_error(X, np.zeros_like(X), mask)


def test_relative_error_rejects_wrong_shape():
    rng = np.random.default_rng(0)
    F = Factors(rng.standard_normal((5, 2)), rng.standard_normal((3, 2)))
    X = rng.standard_normal((3, 3))
    mask = np.zeros(X.shape, dtype=bool)
    mask[[0, 1, 2], [2, 1, 0]] = True
    with pytest.raises(ValueError, match="estimate shape"):
        relative_error(F, X, mask)


@pytest.mark.parametrize(
    "mask",
    [
        (np.array([0, 1, 2]), np.array([2, 1, 0])),  # an index pair
        np.eye(3, dtype=np.int64),  # 0/1 of the right shape, not bool
        np.ones((3, 4), dtype=bool),  # bool of the wrong shape
        np.ones(9, dtype=bool),  # bool of the right size, flat
    ],
)
def test_relative_error_takes_only_a_bool_mask_of_the_reference_shape(mask):
    X = np.random.default_rng(0).standard_normal((3, 3))
    with pytest.raises(ValueError, match="bool array of shape"):
        relative_error(X, X, mask)


def test_relative_error_is_the_norm_ratio_over_the_held_out_entries():
    # bit for bit the norm ratio gathered through np.nonzero of the mask,
    # on random specs including 1 x n, n x 1 and rank = min(m, n)
    rng = np.random.default_rng(0)
    specs = [(1, 7, 1), (7, 1, 1), (9, 6, 6)]
    for _ in range(37):
        m, n = (int(v) for v in rng.integers(1, 30, size=2))
        specs.append((m, n, int(rng.integers(1, min(m, n) + 1))))
    checked = 0
    for seed, (m, n, r) in enumerate(specs):
        missing = float(rng.choice([0.2, 0.5, 0.9]))
        snr = float(rng.choice([float("inf"), 10.0]))
        gt = gen_synthetic(SynthSpec(m, n, r, snr, missing, seed))
        if not gt.test_mask.any():
            continue
        X_hat = gt.x_true + rng.standard_normal((m, n))
        rows, cols = np.nonzero(gt.test_mask)
        truth = gt.x_true[rows, cols]
        expected = np.linalg.norm(X_hat[rows, cols] - truth) / np.linalg.norm(truth)
        assert relative_error(X_hat, gt.x_true, gt.test_mask) == float(expected)
        checked += 1
    assert checked >= 35


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


@pytest.mark.parametrize(
    "header", ["4 3 0 10.0 0.5 0", "4 3 4 10.0 0.5 0", "4 3 1 10.0 1.0 0", "4 3 1 nan 0.5 0"]
)
def test_fixture_with_a_header_no_generator_writes_has_no_spec(tmp_path, header):
    # rank 0, rank above min(m, n), missing 1.0 and snr nan: SynthSpec
    # rejects each, so the fixture loads as plain data
    path = tmp_path / "foreign.txt"
    path.write_text(header + "\n0 1 2.5\n3 2 -1.0\n")
    spec, obs, truth = load_fixture(path)
    assert spec is None and truth is None
    assert (obs.m, obs.n, obs.nnz) == (4, 3, 2)


def test_fixture_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.txt"
    path.write_text("3 3 1 10.0 0.0 7\n\n0 0 1.5\n   \n2 2 3.5\n\n")
    _, obs, _ = load_fixture(path)
    assert obs.row.tolist() == [0, 2] and obs.val.tolist() == [1.5, 3.5]


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
