"""Pure-Python references in context arithmetic, one element at a time,
for the vectorized kernels and the matrix layer built on them."""

import numpy as np


def ref_matmul(A, B, ctx):
    C = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            s = 0
            for k in range(A.shape[1]):
                s = ctx.add(s, ctx.mul(int(A[i, k]), int(B[k, j])))
            C[i, j] = s
    return C


def ref_rref(M, ctx):
    """Reduced row echelon form and rank by Gauss-Jordan elimination."""
    R = [[int(v) for v in row] for row in M]
    rows, cols = M.shape
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if R[i][c]), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = ctx.inv(R[r][c])
        R[r] = [ctx.mul(inv, v) for v in R[r]]
        for i in range(rows):
            if i != r and R[i][c]:
                f = ctx.neg(R[i][c])
                R[i] = [ctx.add(a, ctx.mul(f, b)) for a, b in zip(R[i], R[r])]
        r += 1
        if r == rows:
            break
    return np.array(R, dtype=np.int64).reshape(rows, cols), r
