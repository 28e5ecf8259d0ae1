"""Pure-Python references in context arithmetic, one element at a time,
for the vectorized kernels; schoolbook polynomial arithmetic modulo the
field's modulus, for its log tables; the GF(q^4) root-evaluation route to
family i that checks its trace rows; the family-v cross rank from
separately built codes; and the q^2-cyclotomic coset by its orbit, the
definition that the closed-form defining sets are checked against."""

import math
from itertools import combinations, product

import numpy as np

from eaqmds import kernels
from eaqmds.codes import _trace_table, constacyclic_code
from eaqmds.cosets import DefiningSet
from eaqmds.galois import build_field


def cyclotomic_coset(i, modulus, qsq):
    """Orbit of i under multiplication by q^2 modulo `modulus`, which
    must be coprime to q^2: otherwise the orbit need not return to i."""
    if modulus < 1 or math.gcd(qsq, modulus) != 1:
        raise ValueError(f"modulus {modulus} is not positive and coprime "
                         f"to q^2={qsq}")
    i %= modulus
    orbit = {i}
    x = (i * qsq) % modulus
    while x != i:
        orbit.add(x)
        x = (x * qsq) % modulus
    return frozenset(orbit)


def mul(ctx, a, b):
    """The product of two element codes, one log-table read."""
    return int(ctx.exp[ctx.log[a] + ctx.log[b]])


def ref_matmul(A, B, ctx):
    C = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            s = 0
            for k in range(A.shape[1]):
                s = ctx.add(s, mul(ctx, int(A[i, k]), int(B[k, j])))
            C[i, j] = s
    return C


def ref_rref(M, ctx):
    """Reduced row echelon form and pivot columns by Gauss-Jordan
    elimination."""
    R = [[int(v) for v in row] for row in M]
    rows, cols = M.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, rows) if R[i][c]), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = ctx.pow(R[r][c], -1)
        R[r] = [mul(ctx, inv, v) for v in R[r]]
        for i in range(rows):
            if i != r and R[i][c]:
                f = ctx.neg(R[i][c])
                R[i] = [ctx.add(a, mul(ctx, f, b)) for a, b in zip(R[i], R[r])]
        pivots.append(c)
        if len(pivots) == rows:
            break
    return np.array(R, dtype=np.int64).reshape(rows, cols), pivots


def ref_is_singular(S, ctx):
    """Per-minor Gaussian elimination in context arithmetic."""
    S = [[int(v) for v in row] for row in S]
    k = len(S)
    for c in range(k):
        piv = next((r for r in range(c, k) if S[r][c]), None)
        if piv is None:
            return True
        S[c], S[piv] = S[piv], S[c]
        inv = ctx.pow(S[c][c], -1)
        for r in range(c + 1, k):
            f = ctx.neg(mul(ctx, S[r][c], inv))
            S[r] = [ctx.add(a, mul(ctx, f, b)) for a, b in zip(S[r], S[c])]
    return False


def ref_submatrices_nonsingular(A, ctx):
    """True iff every square submatrix of A is nonsingular, each tested
    by its own elimination."""
    m, k = A.shape
    return not any(ref_is_singular(A[np.ix_(rows, cols)], ctx)
                   for s in range(1, min(m, k) + 1)
                   for rows in combinations(range(m), s)
                   for cols in combinations(range(k), s))


def ref_first_singular_minor(G, ctx):
    """Lexicographic index of the first singular k x k column minor of G,
    -1 if there is none."""
    k, n = G.shape
    for index, cols in enumerate(combinations(range(n), k)):
        if ref_is_singular(G[:, cols], ctx):
            return index
    return -1


def ref_min_weight(G, ctx):
    """Minimum weight of a nonzero codeword m G over every message m;
    n + 1 when every codeword is zero."""
    k, n = G.shape
    best = n + 1
    for msg in product(range(ctx.order), repeat=k):
        cw = [0] * n
        for mi, row in zip(msg, G):
            for c in range(n):
                cw[c] = ctx.add(cw[c], mul(ctx, int(mi), int(row[c])))
        w = sum(1 for v in cw if v)
        if w:
            best = min(best, w)
    return best


def ref_poly_mul(a, b, ctx):
    """a * b by schoolbook multiplication of the digit polynomials over
    GF(p), reduced modulo the field's monic modulus f."""
    p, m, f = ctx.p, ctx.m, ctx.modulus
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(digits(a, p, m)):
        for j, y in enumerate(digits(b, p, m)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(2 * m - 2, m - 1, -1):  # c x^k = -c x^(k-m) (f - x^m)
        for i in range(m):
            prod[k - m + i] = (prod[k - m + i] - prod[k] * f[i]) % p
    return sum(c * p**i for i, c in enumerate(prod[:m]))


def ref_poly_pow(a, e, ctx):
    """a^e for e >= 0 by square-and-multiply on ref_poly_mul."""
    out = 1
    while e:
        if e & 1:
            out = ref_poly_mul(out, a, ctx)
        a = ref_poly_mul(a, a, ctx)
        e >>= 1
    return out


def ref_order(ctx, a):
    """Multiplicative order of a nonzero element code, by repeated products."""
    if a == 0:
        raise ValueError("zero has no multiplicative order")
    x, e = a, 1
    while x != 1:
        x, e = mul(ctx, x, a), e + 1
    return e


class Polynomial:
    """Polynomial over one field context; coefficients ascending."""

    def __init__(self, ctx, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = self.ctx.add(mul(self.ctx, acc, x), c)
        return acc

    def __mul__(self, other):
        if other.ctx is not self.ctx:
            raise ValueError("polynomials over different field contexts")
        if not self.coeffs or not other.coeffs:
            return Polynomial(self.ctx, [])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = self.ctx.add(out[i + j], mul(self.ctx, a, b))
        return Polynomial(self.ctx, out)


def poly_from_roots(ctx, roots):
    """Monic polynomial prod (x - r) over ctx; the empty product is 1."""
    poly = Polynomial(ctx, [1])
    for r in roots:
        poly = poly * Polynomial(ctx, [ctx.neg(r), 1])
    return poly


# ---------------------------------------------------------------------------
# family i by root evaluation in GF(q^4), the route the trace rows replace
# ---------------------------------------------------------------------------

def quadratic_extension(f):
    """GF(p^{2m}) for f = GF(p^m), and emb[a], the image of every element
    code of f under x -> w for w a root of f's modulus, found by search."""
    f4 = build_field(f.p, 2 * f.m)
    modulus = Polynomial(f4, f.modulus)  # GF(p) digits are element codes
    w = next(x for x in range(f4.order) if modulus(x) == 0)
    powers = [f4.pow(w, i) for i in range(f.m)]
    emb = []
    for a in range(f.order):
        acc = 0
        for d, wi in zip(digits(a, f.p, f.m), powers):
            acc = f4.add(acc, mul(f4, d, wi))
        emb.append(acc)
    return f4, np.array(emb, dtype=np.int64)


def digits(a, p, m):
    return [(a // p**i) % p for i in range(m)]


def trace_root(field, n):
    """(GF(q^4), emb, beta) with beta + 1/beta = emb(tr[1]) for the trace
    table tr of length n over field = GF(q^2) behind family i's rows."""
    f4, emb = quadratic_extension(field)
    t = int(emb[_trace_table(field, n)[1]])
    beta = next(b for b in range(1, f4.order)
                if f4.add(b, f4.pow(b, -1)) == t)
    return f4, emb, beta


def root_rows(f4, beta, zs, n):
    """Rows (beta^{zj})_j, j < n, one per z in zs."""
    return np.array([[f4.pow(beta, z * j) for j in range(n)] for z in zs],
                    dtype=np.int64).reshape(len(zs), n)


# ---------------------------------------------------------------------------
# family v: the cross rank with H1 and H2 built as codes of their own
# ---------------------------------------------------------------------------

def ref_cross_rank(q, t, d1, d2, n):
    """rank(H1 H2^dagger) for the halves Z1, Z2 of the family-v defining
    set with parameters (d1, d2), each built by constacyclic_code as a
    code of length n and shift order t of its own."""
    modulus = t * n
    e0 = ((t - 1) * (q - 1) - 2) // (2 * t)
    z1 = frozenset((1 + t * (e0 - j)) % modulus for j in range(1, d1 + 1))
    z2 = frozenset((1 + t * (e0 + j)) % modulus for j in range(1, d2 + 1))
    code1 = constacyclic_code(q, DefiningSet(modulus, t, z1))
    H1, f = code1.H, code1.field
    H2 = constacyclic_code(q, DefiningSet(modulus, t, z2)).H
    return kernels.rank(kernels.matmul(H1, kernels.adjoint(H2, q, f), f), f)
