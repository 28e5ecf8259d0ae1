"""Pure-Python references in context arithmetic, one element at a time,
for the vectorized kernels; schoolbook polynomial arithmetic modulo the
field's modulus, for its log tables; the GF(q^4) root-evaluation route to
family i that checks its trace rows; the family-v lemma checked one
instance at a time on sets, and its cross rank from separately built
codes; the q^2-cyclotomic coset by its orbit, the definition that the
closed-form defining sets are checked against; runs of Omega indices
built and read element by element, for the run arithmetic of
cosets.DefiningSet; a parity check for any exponent set, one run or
not, for the coset test of dual containment; and the family facts as
the closed forms that the rows of cosets.group are checked against:
each family's length and parameter ranges, its defining set and its
parameters at each distance, by family branches."""

import math
from itertools import combinations, product

import numpy as np

from eaqmds import kernels
from eaqmds.codes import _trace_table, constacyclic_code, parity_rows
from eaqmds.cosets import DefiningSet, omega_run
from eaqmds.galois import build_field, factor_prime_power


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


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


# ---------------------------------------------------------------------------
# runs of Omega indices, element by element
# ---------------------------------------------------------------------------

def ref_omega_run(n, r, lo, hi):
    """The elements z of the Omega indices lo..hi modulo n (z = i when
    r = 1, z = 1 + r i otherwise), as two ranges: up to n, then from 0."""
    base = 0 if r == 1 else 1
    lo, end = lo % n, lo % n + min(hi - lo + 1, n)  # past n when it wraps
    return frozenset(range(base + r * lo, base + r * min(end, n), r)).union(
        range(base, base + r * (end - n), r))


def ref_run(modulus, r, elements):
    """The DefiningSet of an element set that is one circular run of
    Omega indices, its start found by a scan for the z whose predecessor
    z - r is absent; None for a set with a gap.  The empty and the full
    set start at 0."""
    starts = [z for z in elements if (z - r) % modulus not in elements]
    if len(starts) > 1:
        return None
    return DefiningSet(modulus, r, min(starts, default=0) // r, len(elements))


def ref_in_run_order(Z, elements):
    """elements by the circular offset of their Omega index from
    Z.start."""
    return sorted(elements, key=lambda z: (z // Z.r - Z.start) % Z.n)


def ref_hull(parts):
    """The run that the union of the parts' elements is, or ValueError."""
    union = frozenset().union(*(ref_omega_run(p.n, p.r, p.start,
                                              p.start + p.size - 1)
                                for p in parts))
    run = ref_run(parts[0].modulus, parts[0].r, union)
    if run is None:
        raise ValueError("not one run")
    return run


def ref_parity_check(q, modulus, r, elements):
    """(H, field) whose rows vanish on the code with exponent set
    `elements` modulo rn = `modulus`, any set closed under z -> q^2 z:
    the power rows (eta^{zj})_j over GF(q^2) for an eta of order rn when
    rn | q^2-1, else (r = 1, n | q^2+1) the root rows (beta^{zj})_j over
    GF(q^4).  The root rows are T H for the trace rows H and an invertible
    T, and a -> a^q is a field automorphism, so H_root H_root^dagger = 0
    iff H H^dagger = 0."""
    p, e = factor_prime_power(q)
    f = build_field(p, 2 * e)
    n, zs = modulus // r, sorted(elements)
    if (q * q - 1) % modulus == 0:
        eta = f.exp[(f.order - 1) // modulus]
        H = np.array([[f.pow(eta, z * j) for j in range(n)] for z in zs],
                     dtype=np.int64).reshape(len(zs), n)
        return H, f
    f4, _, beta = trace_root(f, n)
    return root_rows(f4, beta, zs, n), f4


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
# family v: the lemma one instance at a time, and the cross rank with H1
# and H2 built as codes of their own
# ---------------------------------------------------------------------------

def ref_consta_checks(q, t, Z, d1, d2, code, gram):
    """The family-v checks of the instance with defining set Z and
    parameters (d1, d2), on sets of exponents: Z1 and Z2 are the
    omega_run halves below and above e0, the index of the anchor exponent
    s(q-1), s = (t-1)/2; the split holds iff Z1 | {s(q-1)} | Z2 = Z; the
    intersection is |Z1 & Z2^{-q}|; and, when the split holds, the cross
    rank is kernels.rank of the block on the rows of Z1 and Z2
    (codes.parity_rows) of `gram`, the Gram matrix of `code`, a code
    built directly on a run that holds Z; else it is None."""
    e0 = ((t - 1) * (q - 1) - 2) // (2 * t)
    z1 = omega_run(Z.n, t, e0 - d1, e0 - 1)
    z2 = omega_run(Z.n, t, e0 + 1, e0 + d2)
    split = z1.elements | z2.elements | {(t - 1) // 2 * (q - 1)} \
        == Z.elements
    inter = z1.elements & {(-q * z) % Z.modulus for z in z2.elements}
    cross = None
    if split:
        rows = [parity_rows(q, code.run, half) for half in (z1, z2)]
        cross = kernels.rank(gram[rows[0], rows[1]], code.field)
    return {"split_ok": split, "intersection": len(inter),
            "cross_rank": cross}


def ref_cross_rank(q, t, d1, d2, n):
    """rank(H1 H2^dagger) for the halves Z1, Z2 of the family-v defining
    set with parameters (d1, d2), each built by constacyclic_code as a
    code of length n and shift order t of its own."""
    e0 = ((t - 1) * (q - 1) - 2) // (2 * t)
    code1 = constacyclic_code(q, omega_run(n, t, e0 - d1, e0 - 1))
    H1, f = code1.H, code1.field
    H2 = constacyclic_code(q, omega_run(n, t, e0 + 1, e0 + d2)).H
    return kernels.rank(kernels.matmul(H1, kernels.adjoint(H2, q, f), f), f)


# ---------------------------------------------------------------------------
# the family table as closed forms, one function per fact
# ---------------------------------------------------------------------------

# the only families that take a length n; the others have a fixed length
REF_VARIABLE_LENGTH = ("i", "iii")


def ref_parameter_ranges(family: str, q: int, n: int | None = None,
                         t: int | None = None, odd: bool = False
                         ) -> tuple[int, dict[str, range]]:
    """Length n of one family instance and the admissible range of each of
    its construction parameters; ValueError when (q, n, t) admits none.

    family "i"  : n | q^2+1 (default q^2+1), 0 <= delta <= n // (q+1)
    family "ii" : n = q^2, q <= r <= 2q-2 parity rows (d = r + 1)
    family "iii": n | q^2-1 (default q^2-1), odd <= delta <= n // (q+1) - 1
    family "iv" : odd q, n = (q^2-1)/2, 0 <= delta1 <= (q-1)/2 - 1 and
                  (q+1)/2 <= delta2 <= q-1
    family "v"  : odd q, odd t >= 3 with t | q+1, n = (q^2-1)/t, and both
                  deltas in [(t-1)(q+1)/(2t), (t+1)(q+1)/(2t) - 2]
    """
    qsq = q * q
    if family == "i":
        n = qsq + 1 if n is None else n
        if n < 2 or (qsq + 1) % n:
            raise ValueError(f"family i needs n | q^2+1 with n >= 2, got n={n}")
        return n, {"delta": range(n // (q + 1) + 1)}
    if family == "iii":
        n = qsq - 1 if n is None else n
        if n < 2 or (qsq - 1) % n:
            raise ValueError(f"family iii needs n | q^2-1 with n >= 2, got n={n}")
        return n, {"delta": range(1 if odd else 0, n // (q + 1))}
    if n is not None:   # families i and iii, which take n, returned above
        raise ValueError(f"family {family} has a fixed length; n applies to "
                         f"families {' and '.join(REF_VARIABLE_LENGTH)} only")
    if family == "iv":
        if q % 2 == 0:
            raise ValueError("family iv needs odd q")
        return (qsq - 1) // 2, {"delta1": range((q - 1) // 2),
                                "delta2": range((q + 1) // 2, q)}
    if family == "v":
        if t is None or q % 2 == 0 or t < 3 or t % 2 == 0 or (q + 1) % t:
            raise ValueError("family v needs odd q, odd t >= 3, t | q+1")
        span = range((t - 1) * (q + 1) // (2 * t),
                     (t + 1) * (q + 1) // (2 * t) - 1)
        return (qsq - 1) // t, {"delta1": span, "delta2": span}
    if family == "ii":
        return qsq, {"r": range(q, 2 * q - 1)}
    raise ValueError(f"unknown family {family!r}")


def ref_check_parameters(family: str, q: int, n: int | None = None,
                         t: int | None = None, odd: bool = False,
                         **given: int | None) -> int:
    """Length n of one family instance, once each of its construction
    parameters is given and inside ref_parameter_ranges, and no parameter
    of another family is; ValueError if not."""
    n, ranges = ref_parameter_ranges(family, q, n, t, odd)
    for name, span in ranges.items():
        if given.get(name) is None:
            raise ValueError(f"family {family} needs {' and '.join(ranges)}")
        if not span:
            raise ValueError(f"family {family} admits no {name} at q={q}, "
                             f"n={n}")
        if given[name] not in span:
            raise ValueError(f"{name}={given[name]} outside "
                             f"[{span.start}, {span.stop - 1}]")
    for name, value in given.items():
        if value is not None and name not in ranges:
            raise ValueError(f"family {family} takes {' and '.join(ranges)}"
                             f", not {name}")
    return n


def ref_defining_set(family: str, q: int, *, n: int | None = None,
                     t: int | None = None, odd: bool = False,
                     **params: int | None) -> DefiningSet:
    """Defining set of one family instance, with parameters (delta, or
    delta1 and delta2) inside ref_parameter_ranges; ref_check_parameters
    rejects any other name.  q^2 is +-1 modulo each family's modulus, so the
    cyclotomic cosets are {z} or {z, -z} and each Z is one run of Omega
    indices i:

    family "i"  : cyclic, i in [-delta, delta] (mod n)
    family "iii": cyclic, i in [-delta, delta], or the asymmetric
                  [-delta, delta-1] when odd=True (mod n)
    family "iv" : negacyclic, z = 2j-1 for j in [-delta1, delta2], so
                  i in [-delta1-1, delta2-1] (mod 2n)
    family "v"  : constacyclic order t, i in [e0-delta1, e0+delta2]
                  around the anchor 1 + t*e0 = (t-1)(q-1)/2 (mod tn)
    """
    if family == "ii":
        raise ValueError("family ii (extended RS) is not constacyclic and "
                         "has no defining set")
    n = ref_check_parameters(family, q, n, t, odd, **params)
    delta, delta1, delta2 = (params.get(name)
                             for name in ("delta", "delta1", "delta2"))
    if family == "i":
        return omega_run(n, 1, -delta, delta)
    if family == "iii":
        return omega_run(n, 1, -delta, delta - 1 if odd else delta)
    if family == "iv":
        return omega_run(n, 2, -delta1 - 1, delta2 - 1)
    # t | q+1 makes e0 an integer
    e0 = ((t - 1) * (q - 1) - 2) // (2 * t)
    return omega_run(n, t, e0 - delta1, e0 + delta2)


def ref_instances(family: str, q: int, t: int | None = None,
                  n: int | None = None) -> dict[int, dict]:
    """Each admissible minimum distance, ascending, mapped to the
    parameters that build it: r = d - 1 parity rows (family ii),
    d = 2 delta + 2 (family i, and family iii at even d),
    d = 2 delta + 1 with odd=True (family iii at odd d), and
    d = delta1 + delta2 + 2 with delta2 as large as its range allows
    (families iv and v)."""
    ranges = ref_parameter_ranges(family, q, n, t)[1]
    if family == "ii":
        out = {r + 1: {"r": r} for r in ranges["r"]}
    elif family in ("i", "iii"):
        out = {2 * delta + 2: {"delta": delta} for delta in ranges["delta"]}
        if family == "iii":
            odd = ref_parameter_ranges("iii", q, n, t, odd=True)[1]
            out.update({2 * delta + 1: {"delta": delta, "odd": True}
                        for delta in odd["delta"]})
    else:
        # delta2 ascends in the outer loop, so the last pair written
        # for a distance has the largest delta2
        out = {d1 + d2 + 2: {"delta1": d1, "delta2": d2}
               for d2 in ranges["delta2"] for d1 in ranges["delta1"]}
    return dict(sorted(out.items()))


def ref_expected_c(family: str, t: int | None = None) -> int:
    """The ebit count rank(H H^dagger) of every code of the family."""
    return {"i": 1, "ii": 1, "iii": 1, "iv": 2}.get(family, t)
