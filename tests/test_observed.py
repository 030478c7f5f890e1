import tracemalloc

import numpy as np
import pytest

from spfact import Factors, ObservedMatrix, loss_value, masked_residual
from spfact import observed
from spfact.observed import MaskSplit, adjoint_embed, predicted_values


def hand_case():
    # 3x3, observed {(0,0): 5, (1,2): -2}, rank-1 factors
    Y = ObservedMatrix(3, 3, [0, 1], [0, 2], [5.0, -2.0])
    F = Factors(np.array([[1.0], [0.0], [0.0]]), np.array([[2.0], [0.0], [1.0]]))
    return Y, F


def test_construction_sorts_and_indexes():
    Y = ObservedMatrix(3, 4, [2, 0, 0], [1, 3, 0], [7.0, 8.0, 9.0])
    assert Y.row.tolist() == [0, 0, 2]
    assert Y.col.tolist() == [0, 3, 1]
    assert Y.val.tolist() == [9.0, 8.0, 7.0]
    assert Y.row_ptr.tolist() == [0, 2, 2, 3]
    assert Y.nnz == 3
    assert Y.shape == (3, 4)
    # shuffled random triplets land in the (row, col) lexicographic order
    rng = np.random.default_rng(0)
    lin = rng.choice(50 * 40, size=600, replace=False)
    row, col = lin // 40, lin % 40
    val = rng.standard_normal(600)
    Y = ObservedMatrix(50, 40, row, col, val)
    order = np.lexsort((col, row))
    assert np.array_equal(Y.row, row[order])
    assert np.array_equal(Y.col, col[order])
    assert np.array_equal(Y.val, val[order])


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError, match="duplicate"):
        ObservedMatrix(2, 2, [0, 0], [1, 1], [1.0, 2.0])
    # one planted duplicate among shuffled triplets is named by (row, col)
    rng = np.random.default_rng(1)
    lin = rng.choice(30 * 20, size=100, replace=False)
    r, c = divmod(int(lin[37]), 20)
    lin = rng.permutation(np.append(lin, lin[37]))
    with pytest.raises(ValueError, match=rf"duplicate observation at \(row={r}, col={c}\)"):
        ObservedMatrix(30, 20, lin // 20, lin % 20, np.ones(lin.size))
    with pytest.raises(ValueError, match="out of range"):
        ObservedMatrix(2, 2, [0, 2], [0, 0], [1.0, 2.0])
    with pytest.raises(ValueError, match="out of range"):
        ObservedMatrix(2, 2, [0, 1], [0, -1], [1.0, 2.0])
    with pytest.raises(ValueError, match="NaN or Inf"):
        ObservedMatrix(2, 2, [0, 1], [0, 1], [1.0, np.nan])
    for m, n in ((0, 2), (2, -1)):
        with pytest.raises(ValueError, match="shape must be positive"):
            ObservedMatrix(m, n, [], [], [])
    with pytest.raises(ValueError, match="equal lengths"):
        ObservedMatrix(2, 2, [0, 1], [0, 1], [1.0])


def test_masked_residual_hand_case():
    Y, F = hand_case()
    R = masked_residual(Y, F)
    assert R.val.tolist() == [3.0, -2.0]
    assert R.row.tolist() == Y.row.tolist()
    assert R.col.tolist() == Y.col.tolist()


def test_masked_residual_exact_fit_and_zero_factors():
    rng = np.random.default_rng(0)
    U = rng.standard_normal((4, 2))
    V = rng.standard_normal((5, 2))
    F = Factors(U, V)
    Y = ObservedMatrix.from_dense(U @ V.T)
    assert np.max(np.abs(masked_residual(Y, F).val)) <= 1e-12
    F0 = Factors(np.zeros((4, 2)), np.zeros((5, 2)))
    assert np.array_equal(masked_residual(Y, F0).val, Y.val)


def test_masked_residual_shape_mismatch():
    Y, _ = hand_case()
    F = Factors(np.ones((2, 1)), np.ones((3, 1)))
    with pytest.raises(ValueError, match="shape"):
        masked_residual(Y, F)


def test_masked_residual_linear_in_Y():
    rng = np.random.default_rng(1)
    F = Factors(rng.standard_normal((4, 2)), rng.standard_normal((6, 2)))
    row, col = [0, 1, 3], [5, 2, 0]
    Ya = ObservedMatrix(4, 6, row, col, rng.standard_normal(3))
    Yb = ObservedMatrix(4, 6, row, col, rng.standard_normal(3))
    Ysum = ObservedMatrix(4, 6, row, col, 2.0 * Ya.val + 3.0 * Yb.val)
    # affine in Y with identity linear part: R(aYa + bYb) = a R(Ya) + b R(Yb) + (a+b-1) pred
    lhs = masked_residual(Ysum, F).val
    rhs = (
        2.0 * masked_residual(Ya, F).val
        + 3.0 * masked_residual(Yb, F).val
        + 4.0 * predicted_values(Ya, F)
    )
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_adjoint_embed_basics():
    empty = ObservedMatrix(2, 2, [], [], [])
    assert np.array_equal(adjoint_embed(empty), np.zeros((2, 2)))
    single = ObservedMatrix(3, 3, [1], [1], [7.0])
    D = adjoint_embed(single)
    assert D[1, 1] == 7.0
    assert np.count_nonzero(D) == 1


def test_adjoint_round_trip():
    rng = np.random.default_rng(2)
    R = ObservedMatrix(5, 4, [0, 2, 4], [3, 1, 0], rng.standard_normal(3))
    D = adjoint_embed(R)
    assert np.array_equal(D[R.row, R.col], R.val)
    off = D.copy()
    off[R.row, R.col] = 0.0
    assert not off.any()


def test_adjoint_identity():
    # <adjoint_embed(R), X> == <R, mask(X)> for random X, R
    rng = np.random.default_rng(3)
    for _ in range(20):
        m, n = rng.integers(2, 9, size=2)
        k = int(rng.integers(1, m * n + 1))
        lin = rng.choice(m * n, size=k, replace=False)
        R = ObservedMatrix(m, n, lin // n, lin % n, rng.standard_normal(k))
        X = rng.standard_normal((m, n))
        lhs = float(np.sum(adjoint_embed(R) * X))
        rhs = float(R.val @ X[R.row, R.col])
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_loss_value():
    Y, F = hand_case()
    assert loss_value(Y, F) == pytest.approx(6.5)
    exact = ObservedMatrix.from_dense(F.matrix())
    assert loss_value(exact, F) <= 1e-20
    F0 = Factors(np.zeros((3, 1)), np.zeros((3, 1)))
    assert loss_value(Y, F0) == pytest.approx(0.5 * (25 + 4))
    assert loss_value(Y, F) >= 0.0


def test_with_values_shares_pattern():
    Y, _ = hand_case()
    R = Y.with_values([1.0, 2.0])
    assert R.row is Y.row and R.col is Y.col and R.row_ptr is Y.row_ptr
    with pytest.raises(ValueError):
        Y.with_values([1.0])


def test_mask_split_disjointness():
    a = ObservedMatrix(2, 2, [0], [0], [1.0])
    b = ObservedMatrix(2, 2, [1], [1], [2.0])
    MaskSplit(a, b)  # fine
    with pytest.raises(ValueError, match="overlap"):
        MaskSplit(a, a)
    c = ObservedMatrix(3, 2, [1], [1], [2.0])
    with pytest.raises(ValueError, match="shapes"):
        MaskSplit(a, c)


def test_csr_matches_dense_embedding():
    rng = np.random.default_rng(4)
    R = ObservedMatrix(4, 5, [0, 1, 3, 3], [4, 2, 0, 1], rng.standard_normal(4))
    assert np.array_equal(R.to_csr().toarray(), adjoint_embed(R))


def test_derived_csr_shares_index_arrays():
    # to_csr of a derived matrix reuses the pattern's CSR index arrays and
    # the values without a copy; a non-finite residual is still rejected
    Y, F = hand_case()
    R = masked_residual(Y, F)
    for A in (Y, R, Y.with_values([1.0, 2.0])):
        C = A.to_csr()
        assert np.shares_memory(C.indices, Y.to_csr().indices)
        assert np.shares_memory(C.indptr, Y.to_csr().indptr)
        assert np.shares_memory(C.data, A.val)
        assert np.array_equal(C.toarray(), adjoint_embed(A))
    big = Factors(np.full((3, 1), 1e200), np.full((3, 1), 1e200))
    with pytest.raises(ValueError, match="NaN or Inf"):
        masked_residual(Y, big)


def test_with_values_copies_its_input():
    Y, _ = hand_case()
    val = np.array([1.0, 2.0])
    R = Y.with_values(val)
    val[0] = 9.0
    assert R.val[0] == 1.0 and not R.val.flags.writeable


def test_predicted_values_matches_fancy_index_gather():
    rng = np.random.default_rng(11)
    for m, n, d, nnz in [(7, 5, 3, 0), (7, 5, 1, 12), (30, 20, 1, 200), (30, 20, 6, 350)]:
        lin = rng.choice(m * n, size=nnz, replace=False)
        Y = ObservedMatrix(m, n, lin // n, lin % n, rng.standard_normal(nnz))
        F = Factors(rng.standard_normal((m, d)), rng.standard_normal((n, d)))
        ref = np.einsum("ij,ij->i", F.U[Y.row], F.V[Y.col])
        got = predicted_values(Y, F)
        assert got.shape == (nnz,)
        assert np.array_equal(got, ref)


@pytest.mark.parametrize(
    "block, d, nnz",
    [
        (5, 3, 0),  # empty observation set
        (5, 1, 23),  # d == 1: five entries per block, ragged last block of 3
        (7, 2, 40),  # three entries per block, ragged last block of 1
        (4, 6, 31),  # d > block: one entry per block
        (2**15, 6, 31),  # a single block
    ],
)
def test_predicted_values_blocked_matches_one_shot(monkeypatch, block, d, nnz):
    rng = np.random.default_rng(12)
    m, n = 9, 8
    lin = rng.choice(m * n, size=nnz, replace=False)
    Y = ObservedMatrix(m, n, lin // n, lin % n, rng.standard_normal(nnz))
    F = Factors(rng.standard_normal((m, d)), rng.standard_normal((n, d)))
    ref = np.einsum("ij,ij->i", F.U.take(Y.row, axis=0), F.V.take(Y.col, axis=0))
    monkeypatch.setattr(observed, "_BLOCK", block)
    got = predicted_values(Y, F)
    assert got.shape == (nnz,)
    assert np.array_equal(got, ref)


def test_predicted_values_memory_stays_blocked():
    # the one-shot gather holds two nnz x d temporaries: 2 * 120k * 20 * 8 B
    # = 38 MB; blocked, the output (0.96 MB) dominates
    m, n, nnz, d = 4000, 3000, 120_000, 20
    rng = np.random.default_rng(5)
    lin = rng.choice(m * n, size=nnz, replace=False)
    Y = ObservedMatrix(m, n, lin // n, lin % n, rng.standard_normal(nnz))
    F = Factors(rng.standard_normal((m, d)), rng.standard_normal((n, d)))
    tracemalloc.start()
    try:
        predicted_values(Y, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_gather_holds_one_output_and_two_blocks():
    # predicted_values, masked_residual and loss_value each peak at the
    # output plus one block pair. A pair left bound while the next is taken
    # adds a third block (262 KB here), a residual not subtracted in place a
    # second output (0.96 MB). The 64 KiB slack covers einsum's iterator,
    # the index views and Python objects (14 KB measured).
    m, n, nnz, d = 4000, 3000, 120_000, 20
    rng = np.random.default_rng(5)
    lin = rng.choice(m * n, size=nnz, replace=False)
    Y = ObservedMatrix(m, n, lin // n, lin % n, rng.standard_normal(nnz))
    F = Factors(rng.standard_normal((m, d)), rng.standard_normal((n, d)))
    block = (observed._BLOCK // d) * d * 8
    ref = Y.val - predicted_values(Y, F)
    for fn in (predicted_values, masked_residual, loss_value):
        fn(Y, F)  # warm up
        tracemalloc.start()
        try:
            fn(Y, F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= nnz * 8 + 2 * block + 64 * 2**10
    assert np.array_equal(masked_residual(Y, F).val, ref)
    assert loss_value(Y, F) == 0.5 * float(ref @ ref)


@pytest.mark.parametrize("d", [1, 3])
def test_gather_holds_one_output_and_two_blocks_at_small_d(d):
    # At small d a block holds many entries, so an index copy per block
    # shows: take() copies a read-only index array, which would add
    # step * 8 bytes per factor (263 KB at d=1, 89 KB at d=3). The gather
    # indexes writeable private owners instead, and stays within the output
    # plus two blocks plus 64 KiB.
    m, n, nnz = 4000, 3000, 120_000
    rng = np.random.default_rng(5)
    lin = rng.choice(m * n, size=nnz, replace=False)
    Y = ObservedMatrix(m, n, lin // n, lin % n, rng.standard_normal(nnz))
    F = Factors(rng.standard_normal((m, d)), rng.standard_normal((n, d)))
    block = (observed._BLOCK // d) * d * 8
    ref = np.einsum("ij,ij->i", F.U.take(Y.row, axis=0), F.V.take(Y.col, axis=0))
    for fn in (predicted_values, masked_residual, loss_value):
        fn(Y, F)  # warm up
        tracemalloc.start()
        try:
            fn(Y, F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= nnz * 8 + 2 * block + 64 * 2**10
    assert np.array_equal(predicted_values(Y, F), ref)


def test_public_index_arrays_are_read_only_and_shared():
    Y, F = hand_case()
    R = masked_residual(Y, F)
    for A in (Y, R, Y.with_values([1.0, 2.0])):
        assert A.row is Y.row and A.col is Y.col
        for a in (A.row, A.col):
            with pytest.raises(ValueError):
                a[0] = 1
    assert Y.row.tolist() == [0, 1] and Y.col.tolist() == [0, 2]
