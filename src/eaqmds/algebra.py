"""Dense matrices over a FieldContext.

Matrix entries are integer element codes in a numpy int64 array; the
heavy operations (products, elimination, entrywise powers) go through
the kernels module.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .galois import FieldContext, _check_conj_compat


class Matrix:
    """Immutable dense matrix over one field context."""

    def __init__(self, ctx: FieldContext, data) -> None:
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("matrix data must be 2-D")
        if arr.size and (arr.min() < 0 or arr.max() >= ctx.order):
            raise ValueError("entry outside the field's code range")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self.ctx = ctx
        self.data = arr

    @property
    def nrows(self) -> int:
        return self.data.shape[0]

    @property
    def ncols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def is_zero(self) -> bool:
        return not self.data.any()

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and other.ctx is self.ctx
                and np.array_equal(self.data, other.data))

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols} over GF({self.ctx.order}))"


def _same_ctx(A: Matrix, B: Matrix) -> FieldContext:
    if A.ctx is not B.ctx:
        raise ValueError("matrices over different field contexts")
    return A.ctx


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    ctx = _same_ctx(A, B)
    if A.ncols != B.nrows:
        raise ValueError(f"dimension mismatch: {A.shape} @ {B.shape}")
    return Matrix(ctx, kernels.matmul(A.data, B.data, ctx))


def hermitian_adjoint(M: Matrix, q: int) -> Matrix:
    """Conjugate transpose under a -> a^q."""
    _check_conj_compat(M.ctx, q)
    return Matrix(M.ctx, kernels.pow_entries(M.data, q, M.ctx).T)


def rref(M: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    R, pivots = kernels.eliminate(M.data, M.ctx)
    return Matrix(M.ctx, R), tuple(pivots)


def matrix_rank(M: Matrix) -> int:
    return kernels.rank(M.data, M.ctx)


def nullspace_basis(H: Matrix) -> Matrix:
    """Rows form a basis of {v : H v^T = 0}; cols(H) - rank(H) rows."""
    n = H.ncols
    R, pivots = rref(H)
    free = np.delete(np.arange(n), pivots)
    # basis row b is 1 at free[b] and -R[i, free[b]] at pivot column i
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, list(pivots)] = H.ctx.neg(R.data[:len(pivots), free].T)
    return Matrix(H.ctx, basis)
