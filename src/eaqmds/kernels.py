"""Hot numeric kernels over table-backed finite fields, in numpy.

Matrices are 2-D int64 arrays of element codes, and every kernel takes
the field's FieldContext, last: its exp/log tables, its digit-wise `add`
and its log(-1) shift.  Codes, ebit counts and oracles call these
kernels on their arrays directly; adjoint is the conjugate transpose
under a -> a^q behind every Hermitian product.  The base-p digits of a
code are the coefficients, ascending, of the element as a polynomial
over GF(p) modulo the field's modulus f, so addition is digit-wise mod p.

Products.  For odd p, A @ B is computed on digit planes: A and B split
into their m digit planes A_i, B_j (float64, entries in [0, p)), one
BLAS call forms every plane product A_i @ B_j, and the coefficient
planes C_k = sum_{i+j=k} A_i @ B_j (k < 2m - 1) are reduced mod p once.
The degrees k >= m are then folded back with the digits of x^k mod f,
and the m digit planes are packed into codes.  Every entry of C_k is an
integer of at most inner * m * (p-1)^2, so the float64 product is exact
while that stays below 2^53; this holds for any inner dimension below
2^13 in every field the package builds (order <= 2^20), and matmul
raises ValueError beyond it, as on a mismatched inner dimension.  For
p = 2 the entry products are read off the field's log tables, cast to
int32 logs and exps in the narrowest unsigned dtype, and XOR-summed.
A chunk of the inner axis is one addition of logs, one np.take and one
XOR reduction over the contiguous last axis of a (rows, cols, chunk)
tensor; the chunks keep the tensor from being held whole.  At the 2^20
ceiling the two casts take 20 MB.

A product in logs, zero included, is one read exp[log a + log b] (see
galois).  Elimination negates by the log(-1) shift, adds digit-wise.
rank and eliminate share one forward pass, which clears below each
pivot; eliminate's back pass then scales the pivots to 1 and clears
above them.  Digit-wise addition measured faster there than Zech-log
addition on GF(q^2) for prime q, the fields most codes live in.  rank
eliminates nothing when M is monomial, with at most one nonzero in each
row and each column: its nonzero entries are then a scaled partial
permutation, and their number is the rank.  Any other M goes to the
forward pass, on its nonzero rows and columns only, which never change
a rank.  Every block of a monomial M is monomial, so block_ranks reads
the ranks of many blocks of one M off one np.nonzero of it: the number
of nonzeros inside each block.  Every Gram matrix the families form is
monomial (a power-row Gram matrix is (n mod p) times a partial
permutation), so the ebit counts of all instances of a family group,
principal blocks of the group's Gram matrix, cost one pass over its
support.

Minimum-weight search enumerates messages projectively (highest nonzero
digit 1) from span tables.  One table holds every combination of the
first rows of G, built by field additions, and a second one the
combinations of the rows above them.  A codeword h - s, with s from the
first table, has weight n minus the number of coordinates where s and h
agree, so each codeword costs one integer comparison per coordinate and
no field product.  The comparisons visit the same codewords wherever G
is split, but each table row costs a digit-wise field addition, so the
split balances the two tables: about half of the rows go to each,
within the low table's cap of _SPAN_ROWS rows.

The minor oracle uses the systematic form: a full-rank k x n matrix with
echelon form [I | A], up to column order, has every k x k minor
nonsingular iff every square submatrix of A is (MacWilliams-Sloane,
ch. 11, thm 8).  The certificate decides that in O(k(n-k)) when A is a
generalized Cauchy matrix, possibly doubly extended: A[i, j] =
1 / (u_i v_j det[P_i, Q_j]) for points P_i, Q_j of the projective line,
which holds iff A has no zero entry and B = 1/A, entry-wise, has rank at
most 2 (B = U V with U k x 2 and V 2 x (n-k)).  [I | A] then generates a
generalized Reed-Solomon code (Roth-Seroussi 1985, Roth-Lempel 1989),
and each square submatrix of A has the Cauchy determinant, a unit times
prod (x_i - x_i') prod (y_j - y_j') / prod (x_i - y_j): nonzero iff the
rows' points are distinct and the columns' are, that is iff no two rows
and no two columns of A are proportional.  A zero entry or two
proportional rows or columns is a singular 1 x 1 or 2 x 2 minor, and
refutes; rank(B) > 2 gives no verdict.  An A of one row or one column
has only 1 x 1 minors, and the zero test alone decides it (its columns,
or rows, are all proportional).
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .galois import _check_conj_compat

# float64 integers are exact below 2^53
_EXACT = 1 << 53
# product-tensor entries per inner-axis chunk of the p = 2 product
_XOR_CHUNK = 1 << 18


@lru_cache(maxsize=None)
def _fold(ctx):
    """(m, 2m - 1) float64: column k holds the base-p digits of x^k mod
    the field modulus, k < 2m - 1 (x is the element code p when m > 1)."""
    p, m = ctx.p, ctx.m
    codes = [p**k for k in range(m)] + [ctx.pow(p, k) for k in range(m, 2 * m - 1)]
    digits = np.array(codes)[None, :] // p ** np.arange(m)[:, None] % p
    return digits.astype(np.float64)


def _digit_planes(A, p, m):
    """(m, *A.shape) float64 array of the base-p digits of A's codes."""
    planes = np.empty((m,) + A.shape)
    for i in range(m - 1):
        planes[i] = A % p
        A = A // p
    planes[m - 1] = A
    return planes


def _mod(x, p):
    """x mod p, exactly, for float64 integers 0 <= x < 2^53: x / p =
    k + r/p with r < p is correctly rounded, and its rounding error, below
    1/p, cannot reach k + 1, so floor(x / p) = k."""
    return x - p * np.floor(x / p)


def _plane_product(A, B, ctx):
    p, m = ctx.p, ctx.m
    rows, inner = A.shape
    cols = B.shape[1]
    if inner * m * (p - 1) ** 2 >= _EXACT:
        raise ValueError(
            f"inner dimension {inner} is too large for an exact float64 "
            f"product over GF({p}^{m})")
    a = _digit_planes(A, p, m).reshape(m * rows, inner)
    b = _digit_planes(B, p, m).transpose(1, 0, 2).reshape(inner, m * cols)
    prods = (a @ b).reshape(m, rows, m, cols)  # [i, :, j, :] = A_i @ B_j
    coeffs = np.zeros((2 * m - 1, rows, cols))
    for i in range(m):
        coeffs[i:i + m] += prods[i].transpose(1, 0, 2)
    coeffs = _mod(coeffs.reshape(2 * m - 1, rows * cols), p)
    digits = _mod(_fold(ctx) @ coeffs, p)
    codes = p ** np.arange(m, dtype=np.float64) @ digits
    return codes.astype(np.int64).reshape(rows, cols)


@lru_cache(maxsize=None)
def _xor_tables(ctx):
    """The field's exp table in the narrowest unsigned dtype and its log
    table as int32, the p = 2 product's operands."""
    exp = ctx.exp.astype(_narrow(ctx.order - 1))
    log = ctx.log.astype(np.int32)
    exp.setflags(write=False)
    log.setflags(write=False)
    return exp, log


def _xor_product(A, B, ctx):
    exp, log = _xor_tables(ctx)
    rows, inner = A.shape
    cols = B.shape[1]
    la = np.take(log, A)[:, None]  # (rows, 1, inner)
    lb = np.take(log, B.T)[None]  # (1, cols, inner), contiguous rows
    out = np.zeros((rows, cols), dtype=exp.dtype)
    step = max(1, _XOR_CHUNK // max(1, rows * cols))
    for lo in range(0, inner, step):
        logs = la[..., lo:lo + step] + lb[..., lo:lo + step]
        out ^= np.bitwise_xor.reduce(np.take(exp, logs), axis=2)
    return out.astype(np.int64)


def matmul(A: np.ndarray, B: np.ndarray, ctx) -> np.ndarray:
    """A @ B over the field: digit planes through BLAS for odd p, chunked
    XOR sums of log-table products for p = 2."""
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"dimension mismatch: {A.shape} @ {B.shape}")
    if ctx.p == 2:
        return _xor_product(A, B, ctx)
    return _plane_product(A, B, ctx)


def _forward(M, ctx) -> list[int]:
    """Forward elimination of M in place; returns the pivot columns.
    Each pivot clears only the rows below it, and only right of its
    column, because the pivot row is zero left of it.  So the entries
    left of each pivot and the rows past the last one are left
    unreduced."""
    exp, log, top = ctx.exp, ctx.log, ctx.order - 1
    rows, cols = M.shape
    pivots = []
    r = 0
    for c in range(cols):
        nz = M[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            M[[r, r + nz[0]]] = M[[r + nz[0], r]]
        # the old row r moved to the pivot's slot is zero in column c
        below = nz[1:] + r
        pivots.append(c)
        r += 1
        if r == rows:
            break
        if below.size:
            lrow = log[M[r - 1, c + 1:]]
            # log of -(entry / pivot), the factor that clears each row
            lf = (log[M[below, c]] + ctx.log_neg_one - log[M[r - 1, c]]) % top
            M[below, c + 1:] = ctx.add(M[below, c + 1:],
                                       exp[lf[:, None] + lrow])
    return pivots


def _monomial(nz: np.ndarray) -> bool:
    """True iff the support nz holds at most one nonzero in each row and
    each column.  Its count of nonzeros is at least the number of rows,
    and of columns, that hold one, with equality iff no line holds two."""
    count = np.count_nonzero(nz)
    return (count == np.count_nonzero(nz.any(axis=1))
            == np.count_nonzero(nz.any(axis=0)))


def rank(M: np.ndarray, ctx) -> int:
    """rank(M), read off the support when M is monomial; else the forward
    pass on M's nonzero rows and columns (copies, so M is untouched)."""
    nz = M != 0
    if _monomial(nz):
        return int(np.count_nonzero(nz))
    return len(_forward(M[nz.any(axis=1)][:, nz.any(axis=0)], ctx))


def block_ranks(M: np.ndarray, blocks, ctx) -> list[int]:
    """rank(M[rows, cols]) for each pair (rows, cols) of step-1 slices in
    blocks.  Every block of a monomial M is monomial, so its rank is the
    number of M's nonzeros inside it: one np.nonzero and one bounds test
    count them all.  Any other M ranks each block."""
    if any(s.step not in (None, 1) for block in blocks for s in block):
        raise ValueError("block_ranks takes slices of step 1")
    nz = M != 0
    if not _monomial(nz):
        return [rank(M[rows, cols], ctx) for rows, cols in blocks]
    r, c = np.nonzero(nz)
    lo_r, hi_r, lo_c, hi_c = np.array(
        [rows.indices(M.shape[0])[:2] + cols.indices(M.shape[1])[:2]
         for rows, cols in blocks], dtype=np.int64).reshape(-1, 4).T[..., None]
    inside = (lo_r <= r) & (r < hi_r) & (lo_c <= c) & (c < hi_c)
    return inside.sum(axis=1).tolist()


def eliminate(M: np.ndarray, ctx) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form (copy) and its pivot columns: the forward
    pass, then a back pass that zeroes what it left unreduced, scales each
    pivot row to 1 and clears each pivot column bottom-up."""
    exp, log, top = ctx.exp, ctx.log, ctx.order - 1
    R = M.copy()
    pivots = _forward(R, ctx)
    r = len(pivots)
    R[r:] = 0
    for i, c in enumerate(pivots):
        R[i, :c] = 0
    lr = log[R[:r]]
    lp = lr[np.arange(r), pivots]
    # + top: a nonzero quotient's log is in [1, 2 top - 1], a zero's >= 2 top
    R[:r] = exp[lr - lp[:, None] + top]
    for i in range(r - 1, 0, -1):
        c = pivots[i]
        above = R[:i, c].nonzero()[0]
        if above.size:
            # row i is 1 at c and zero left of it: add -(entry) * row i
            lrow = log[R[i, c:]]
            lf = (log[R[above, c]] + ctx.log_neg_one) % top
            R[above, c:] = ctx.add(R[above, c:], exp[lf[:, None] + lrow])
    return R, pivots


# Most rows of the low span table, and codewords per comparison: 2^14
_SPAN_ROWS = 1 << 14


def _span(rows, ctx):
    """All Q**len(rows) combinations of `rows`, by field additions:
    S_0 = {0} and S_{i+1} = S_i + a * rows[i] for a in code order, so
    row id r of the table is the combination whose coefficients are the
    base-Q digits of r, and S[:Q**j] spans the first j rows."""
    exp, log = ctx.exp, ctx.log
    n = rows.shape[1]
    S = np.zeros((1, n), dtype=np.int64)
    for g in rows:
        multiples = exp[log[:, None] + log[g]]  # a * g, a in code order
        S = ctx.add(multiples[:, None], S[None]).reshape(-1, n)
    return S


def _narrow(top):
    """The smallest unsigned dtype that holds 0..top."""
    return np.uint8 if top < 1 << 8 else np.uint16 if top < 1 << 16 else np.uint32


def _zero_counts(low, heads, n):
    """(len(heads), low.shape[1]) counts of the coordinates c where
    h_c - s_c = 0, for s a column of `low` (n x R) and h a row of
    `heads` (B x n): one comparison per coordinate, no field addition."""
    zeros = np.zeros((heads.shape[0], low.shape[1]), dtype=_narrow(n))
    for c in range(n):
        zeros += low[c] == heads[:, c, None]
    return zeros


def min_weight(G: np.ndarray, ctx) -> int:
    """Exact minimum Hamming weight of the span of G's rows.

    Projective enumeration: scaling a message by a nonzero field element
    keeps the codeword's weight, so only messages whose highest nonzero
    digit is 1 are visited.  Messages split at L = k // 2, or at the
    largest L with Q**L <= _SPAN_ROWS if that is smaller: the low table
    spans rows 0..L-1, and for leading position j each high part
    h = G_j + sum_{L<=i<j} m_i G_i meets the low span S =
    low[:Q**min(j, L)].  S is closed under negation, so the codewords
    s + h are the h - s, and the weight of h - s is n minus the count of
    s_c = h_c: one integer comparison per coordinate.  The h come from
    one span table of G_L..G_{k-2}, prefix-sliced per j like the low
    table.  Its Q**(k-1-L) rows are at most the low table's Q**L unless
    _SPAN_ROWS caps L.  That split minimises Q**L + Q**(k-1-L), the rows
    built by field additions, and the codewords compared are the same
    (Q**k - 1) / (Q - 1) at any L.  Codewords with n zeros (G
    rank-deficient) are skipped; n + 1 means every codeword is zero."""
    k, n = G.shape
    Q = ctx.order
    levels = 0
    while levels < k // 2 and Q ** (levels + 1) <= _SPAN_ROWS:
        levels += 1
    dtype = _narrow(Q - 1)
    low = np.ascontiguousarray(_span(G[:levels], ctx).T, dtype=dtype)
    high = _span(G[levels:k - 1], ctx)
    most = -1  # most zero coordinates of a nonzero codeword
    for j in range(k):
        table = low[:, :Q ** min(j, levels)]
        heads = ctx.add(high[:Q ** max(0, j - levels)], G[j]).astype(dtype)
        step = max(1, _SPAN_ROWS // table.shape[1])
        for lo in range(0, len(heads), step):
            zeros = _zero_counts(table, heads[lo:lo + step], n)
            zeros = zeros[zeros < n]
            if zeros.size:
                most = max(most, int(zeros.max()))
    return n - most


def _has_proportional_rows(L, top):
    """True iff two rows of the log matrix L differ by a constant mod top:
    two rows shifted to start at log 0 are equal."""
    N = (L - L[:, :1]) % top
    return len({row.tobytes() for row in N}) < len(N)


def cauchy_certificate(M: np.ndarray, ctx) -> bool | None:
    """Every k x k minor of the k x n matrix M, k <= n, nonsingular (True)
    or not (False), decided in O(k(n-k)) after the echelon form [I | A],
    or None: no verdict, when A is not a generalized Cauchy matrix."""
    R, pivots = eliminate(M, ctx)
    if len(pivots) < M.shape[0]:
        return False  # rank-deficient: every k x k minor is singular
    A = np.delete(R, pivots, axis=1)
    if not A.all():
        return False  # a singular 1 x 1 minor
    if min(A.shape) < 2:
        return True
    top = ctx.order - 1
    L = ctx.log[A]
    if _has_proportional_rows(L, top) or _has_proportional_rows(L.T, top):
        return False  # a singular 2 x 2 minor
    B = ctx.exp[-L % top]
    B = B if B.shape[0] >= B.shape[1] else B.T  # fewer columns, fewer steps
    return True if rank(B, ctx) <= 2 else None


def adjoint(M: np.ndarray, q: int, ctx) -> np.ndarray:
    """Conjugate transpose of M under a -> a^q."""
    _check_conj_compat(ctx, q)
    # a power, not a sum of logs: q log 0 = 0 (mod Q - 1), so mask zero
    return np.where(M != 0, ctx.exp[ctx.log[M] * q % (ctx.order - 1)], 0).T
