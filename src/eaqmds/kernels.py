"""Hot numeric kernels over table-backed finite fields, in numpy.

Matrices are 2-D int64 arrays of element codes; a field is described by
(p, m, exp, log) where exp/log are the context's discrete-log tables.

Addition in GF(p^m) is digit-wise mod p on the base-p encoding, so an
array sum along an axis is a digit-wise modular sum.  The two distance
oracles avoid per-item Python loops: the minor oracle eliminates a
batch of k x k column minors as one (B, k, k) tensor, and minimum-weight
search enumerates messages projectively (highest nonzero digit 1).
"""

from __future__ import annotations

from itertools import chain, combinations, islice

import numpy as np


def _add_arrays(a, b, p, m):
    if p == 2:
        return a ^ b
    out = np.zeros_like(a + b)
    pw = 1
    for _ in range(m):
        out += ((a // pw + b // pw) % p) * pw
        pw *= p
    return out


def _neg_array(a, p, m):
    if p == 2:
        return a.copy()
    out = np.zeros_like(a)
    pw = 1
    for _ in range(m):
        out += ((-(a // pw)) % p) * pw
        pw *= p
    return out


def _sum_field(x, axis, p, m):
    """Field sum along an axis: digit-wise modular sum of codes."""
    if p == 2:
        return np.bitwise_xor.reduce(x, axis=axis)
    out = np.zeros(x.shape[:axis] + x.shape[axis + 1:], dtype=np.int64)
    pw = 1
    for _ in range(m):
        out += (np.sum((x // pw) % p, axis=axis) % p) * pw
        pw *= p
    return out


def _scale_row(row, factor, exp, log):
    """factor * row, vectorized through the log table."""
    if factor == 0:
        return np.zeros_like(row)
    out = np.zeros_like(row)
    nz = row != 0
    out[nz] = exp[log[row[nz]] + log[factor]]
    return out


def _matmul(A, B, exp, log, p, m):
    rows, inner = A.shape
    cols = B.shape[1]
    la = np.where(A != 0, log[A], -1)
    lb = np.where(B != 0, log[B], -1)
    prod_log = la[:, :, None] + lb[None, :, :]
    prod = np.where((la[:, :, None] >= 0) & (lb[None, :, :] >= 0),
                    exp[np.maximum(prod_log, 0)], 0)
    return _sum_field(prod.reshape(rows, inner, cols), 1, p, m)


def _eliminate(M, exp, log, p, m, Q):
    rows, cols = M.shape
    r = 0
    for c in range(cols):
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        pivot = r + int(nz[0])
        if pivot != r:
            M[[r, pivot]] = M[[pivot, r]]
        inv = exp[(Q - 1) - log[M[r, c]]]
        M[r] = _scale_row(M[r], int(inv), exp, log)
        col = M[:, c].copy()
        col[r] = 0
        rows_nz = np.nonzero(col)[0]
        if rows_nz.size:
            factors = _neg_array(col[rows_nz], p, m)
            upd = np.zeros((rows_nz.size, cols), dtype=np.int64)
            frow = M[r]
            fnz = frow != 0
            upd[:, fnz] = exp[log[factors][:, None] + log[frow[fnz]][None, :]]
            M[rows_nz] = _add_arrays(M[rows_nz], upd, p, m)
        r += 1
        if r == rows:
            break
    return r


def _min_weight(G, exp, log, p, m, Q, chunk=1 << 14):
    """Projective enumeration: scaling a message by a nonzero field
    element keeps the codeword's weight, so only messages whose highest
    nonzero digit is 1 are visited.  For each leading position j, digits
    below j range over the field (chunked through one tensor product)
    and digits above j are zero."""
    k, n = G.shape
    best = n + 1
    lG = np.where(G != 0, log[G], -1)
    for j in range(k):
        total = Q**j
        for lo in range(0, total, chunk):
            hi = min(lo + chunk, total)
            ids = np.arange(lo, hi, dtype=np.int64)
            lm = np.zeros((hi - lo, j + 1), dtype=np.int64)  # log 1 = 0
            for i in range(j):
                lm[:, i] = log[ids % Q]   # log 0 = -1 marks a zero digit
                ids //= Q
            prod_log = lm[:, :, None] + lG[None, :j + 1, :]
            prod = np.where((lm[:, :, None] >= 0) & (lG[None, :j + 1, :] >= 0),
                            exp[np.maximum(prod_log, 0)], 0)
            cw = _sum_field(prod, 1, p, m)
            w = np.count_nonzero(cw, axis=1)
            w = w[w > 0]
            if w.size:
                best = min(best, int(w.min()))
    return best


# Minors per vectorized elimination.  A batch holds _MINOR_BATCH * k * k
# entries, below the (1 << 14) * k * n of one _min_weight chunk.
_MINOR_BATCH = 1 << 12


def _first_singular(M, exp, log, p, m, Q):
    """Offset of the first singular matrix in a (B, k, k) batch, -1 if
    none.  Forward elimination runs on every matrix at once: column c
    takes a per-matrix pivot row from rows c.. (row c moves into its
    slot), scaled so that adding (row * factor) clears the rows below.
    A matrix with no pivot in some column is singular; only the matrices
    before it can still change the answer, so the batch is cut there."""
    k = M.shape[1]
    neg_one = 0 if p == 2 else (Q - 1) // 2  # log(-1)
    first = -1
    for c in range(k):
        nz = M[:, c:, c] != 0
        has = nz.any(axis=1)
        if not has.all():
            first = int(np.argmin(has))
            M, nz = M[:first], nz[:first]
        if c == k - 1 or first == 0:
            break
        b = np.arange(M.shape[0])
        piv = c + nz.argmax(axis=1)
        prow = M[b, piv, c:]
        M[b, piv, c:] = M[:, c, c:]
        # log of -(pivot row)/pivot, so that M[i] + M[i, c] * scaled row
        # clears column c
        lp = log[prow]
        shift = (neg_one - lp[:, :1]) % (Q - 1)
        lr = np.where(lp[:, 1:] >= 0, (lp[:, 1:] + shift) % (Q - 1), -1)
        lf = log[M[:, c + 1:, c]]
        upd = np.where((lf[:, :, None] >= 0) & (lr[:, None, :] >= 0),
                       exp[np.maximum(lf[:, :, None] + lr[:, None, :], 0)], 0)
        M[:, c + 1:, c + 1:] = _add_arrays(M[:, c + 1:, c + 1:], upd, p, m)
    return first


def _first_singular_minor(G, exp, log, p, m, Q, start_index):
    """Walk the column subsets from `start_index` in batches of
    _MINOR_BATCH and eliminate each batch as one (B, k, k) tensor."""
    k, n = G.shape
    if k == 0:
        return -1
    subsets = islice(combinations(range(n), k), start_index, None)
    start = start_index
    while True:
        cols = np.fromiter(chain.from_iterable(islice(subsets, _MINOR_BATCH)),
                           dtype=np.int64).reshape(-1, k)
        if cols.shape[0] == 0:
            return -1
        batch = np.ascontiguousarray(G[:, cols].transpose(1, 0, 2))
        offset = _first_singular(batch, exp, log, p, m, Q)
        if offset >= 0:
            return start + offset
        start += cols.shape[0]


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _field_args(ctx):
    return ctx.exp, ctx.log, ctx.p, ctx.m, ctx.order


def matmul(A: np.ndarray, B: np.ndarray, ctx) -> np.ndarray:
    exp, log, p, m, _ = _field_args(ctx)
    return _matmul(A, B, exp, log, p, m)


def eliminate(M: np.ndarray, ctx) -> tuple[np.ndarray, int]:
    """Reduced row echelon form (copy) and rank."""
    exp, log, p, m, Q = _field_args(ctx)
    work = M.copy()
    return work, _eliminate(work, exp, log, p, m, Q)


def rank(M: np.ndarray, ctx) -> int:
    return eliminate(M, ctx)[1]


def min_weight(G: np.ndarray, ctx) -> int:
    """Exact minimum Hamming weight of the span of G's rows."""
    exp, log, p, m, Q = _field_args(ctx)
    return _min_weight(G, exp, log, p, m, Q)


def first_singular_minor(G: np.ndarray, ctx, start_index: int = 0) -> int:
    """Lexicographic index of the first singular k x k minor, -1 if none.
    `start_index` allows resuming a long enumeration."""
    exp, log, p, m, Q = _field_args(ctx)
    return _first_singular_minor(G, exp, log, p, m, Q, start_index)


def pow_entries(M: np.ndarray, e: int, ctx) -> np.ndarray:
    """Entrywise M^e (used for the conjugation a -> a^q)."""
    exp, log, *_ = _field_args(ctx)
    out = np.zeros_like(M)
    nz = M != 0
    out[nz] = exp[(log[M[nz]] * e) % (ctx.order - 1)]
    return out
