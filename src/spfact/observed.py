"""Partially observed matrices: the masking operator and its adjoint.

An ObservedMatrix is a shape (m, n) plus a set of (row, col, value)
triplets, stored sorted by (row, col) with a CSR-style row pointer so
row-wise sweeps cost O(|Z| d). The masking operator P restricts a dense
matrix to the observed index set; adjoint_embed is its adjoint, scattering
observed values back into a dense zero matrix.

predicted_values gathers the factor rows of the observed entries in
fixed-size blocks, so the O(|Z| d) gather needs two blocks of scratch
memory on top of its O(|Z|) output. residual_values, which masked_residual
and loss_value both read, subtracts into that output, so a residual costs
one |Z|-length array.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class ObservedMatrix:
    """Immutable sparse set of observed entries of an m x n matrix."""

    __slots__ = ("m", "n", "row", "col", "val", "row_ptr", "_row", "_col", "_csr_index")

    def __init__(self, m, n, row, col, val):
        m = int(m)
        n = int(n)
        if m < 1 or n < 1:
            raise ValueError("shape must be positive")
        row = np.asarray(row, dtype=np.int64).ravel()
        col = np.asarray(col, dtype=np.int64).ravel()
        val = np.asarray(val, dtype=float).ravel()
        if not (row.size == col.size == val.size):
            raise ValueError("row, col, val must have equal lengths")
        if row.size:
            if row.min() < 0 or row.max() >= m:
                raise ValueError("row index out of range")
            if col.min() < 0 or col.max() >= n:
                raise ValueError("column index out of range")
            if not np.isfinite(val).all():
                raise ValueError("observed values contain NaN or Inf")
            key = row * n + col
            order = np.argsort(key, kind="stable")
            row = row[order]
            col = col[order]
            val = val[order]
            dup = np.diff(key[order]) == 0
            if dup.any():
                k = int(np.flatnonzero(dup)[0])
                raise ValueError(
                    f"duplicate observation at (row={row[k]}, col={col[k]})"
                )
        row_ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=m), out=row_ptr[1:])
        # scipy's CSR index dtype, cast once here for every to_csr of this
        # pattern and of the matrices derived from it
        fits = max(m, n, row.size) <= np.iinfo(np.int32).max
        idx = np.int32 if fits else np.int64
        csr_index = (col.astype(idx), row_ptr.astype(idx))
        for a in (val, row_ptr, *csr_index):
            a.setflags(write=False)
        self.m = m
        self.n = n
        # take() copies a read-only index array, so the gather indexes the
        # writeable owners _row and _col, which nothing writes to; row and
        # col are read-only views of them.
        self._row = row
        self._col = col
        self.row = _read_only_view(row)
        self.col = _read_only_view(col)
        self.val = val
        self.row_ptr = row_ptr
        self._csr_index = csr_index

    def _derive(self, val):
        # Same pattern (and CSR index arrays) with new values: a float
        # array of nnz entries that nothing else holds.
        if not np.isfinite(val).all():
            raise ValueError("observed values contain NaN or Inf")
        val.setflags(write=False)
        obj = object.__new__(ObservedMatrix)
        for name in ("m", "n", "row", "col", "row_ptr", "_row", "_col", "_csr_index"):
            setattr(obj, name, getattr(self, name))
        obj.val = val
        return obj

    @classmethod
    def from_dense(cls, X):
        """Fully observed view of a dense matrix."""
        X = np.asarray(X, dtype=float)
        m, n = X.shape
        row, col = np.divmod(np.arange(m * n, dtype=np.int64), n)
        return cls(m, n, row, col, X.ravel())

    @property
    def shape(self):
        return (self.m, self.n)

    @property
    def nnz(self):
        return self.val.size

    def with_values(self, val):
        """Same observation pattern, new values."""
        val = np.array(val, dtype=float).ravel()
        if val.size != self.val.size:
            raise ValueError("value count does not match the pattern")
        return self._derive(val)

    def to_csr(self):
        """Zero-copy scipy CSR view of the observed entries."""
        indices, indptr = self._csr_index
        return sp.csr_matrix(
            (self.val, indices, indptr), shape=(self.m, self.n), copy=False
        )


def _read_only_view(a):
    v = a.view()
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class MaskSplit:
    """Disjoint train/test observation sets over one matrix shape."""

    train: ObservedMatrix
    test: ObservedMatrix

    def __post_init__(self):
        if self.train.shape != self.test.shape:
            raise ValueError("train and test shapes disagree")
        lin_tr = self.train.row * self.train.n + self.train.col
        lin_te = self.test.row * self.test.n + self.test.col
        if np.intersect1d(lin_tr, lin_te).size:
            raise ValueError("train and test index sets overlap")


# Gathered elements per factor in one block of predicted_values. The two
# blocks take 512 KiB together, which fits a per-core L2 cache.
_BLOCK = 2**15


def _check_shapes(Y, F):
    if F.shape != Y.shape:
        raise ValueError(f"factor shape {F.shape} does not match data shape {Y.shape}")


def predicted_values(Y, F):
    """Values of U V^T at the observed positions of Y, in O(|Z| d).

    Factor rows are gathered about _BLOCK elements per factor at a time.
    einsum reduces each row on its own, so the result does not depend on
    the block size. Each block pair is released before the next is taken,
    so the scratch peak is two blocks.
    """
    _check_shapes(Y, F)
    out = np.empty(Y.nnz)
    step = max(1, _BLOCK // F.width)
    for s in range(0, Y.nnz, step):
        e = s + step
        # Plain take: take(..., out=buf) buffers the copy under mode="raise".
        U_blk = F.U.take(Y._row[s:e], axis=0)
        V_blk = F.V.take(Y._col[s:e], axis=0)
        np.einsum("ij,ij->i", U_blk, V_blk, out=out[s:e])
        del U_blk, V_blk
    return out


def residual_values(Y, F):
    """Values of Y - U V^T at the observed positions of Y, in O(|Z| d)."""
    r = predicted_values(Y, F)
    return np.subtract(Y.val, r, out=r)


def masked_residual(Y, F):
    """P(Y - U V^T): the residual triplets on the observed set."""
    return Y._derive(residual_values(Y, F))


def adjoint_embed(R):
    """Dense m x n matrix carrying R's values on its pattern, zero elsewhere."""
    out = np.zeros((R.m, R.n))
    out[R.row, R.col] = R.val
    return out


def loss_value(Y, F):
    """Half squared residual on the observed set, 0.5 |P(Y - U V^T)|_F^2."""
    r = residual_values(Y, F)
    return 0.5 * float(r @ r)
