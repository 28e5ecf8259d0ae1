"""Exact arithmetic in finite fields GF(p^m).

Elements are stored as integers in [0, p^m): the base-p digits of the
integer are the coefficients (ascending degree) of the element's
polynomial over GF(p), taken modulo the field's irreducible modulus f.
The package builds one representation of each field: build_field caches
one FieldContext per (p, m), under the smallest monic irreducible f.

Setup works on GF(p)-linear maps of digit row vectors, as matrices mod
p.  The companion matrix C of f is multiplication by x, and a code a
multiplies as a(C) = sum_i a_i C^i.  Rabin's test that picks f, the
search for a primitive element g and the exp/log tables of g, built
from g(C), need only matrix products and powers mod p.

At run time products, inverses and powers are index arithmetic in
those tables.  Zero has the log S = 2(Q-1), and exp, of 4(Q-1)+1
entries, reads 0 from S on, so exp[log a + log b] = a b with no zero
test.  FieldContext owns element arithmetic for scalar callers and the
vectorized kernels alike: `add` is the one digit-wise addition mod p
(XOR for p = 2) and takes ints or int arrays, and `log_neg_one`,
log(-1), is the one shift behind negation.

The conjugation map a -> a^q (see kernels.adjoint) backs the
Hermitian inner product on GF(q^2)^n.
"""

from __future__ import annotations

import numpy as np

# hard ceiling on field order: 40 MB of tables, and 20 MB more for their
# narrow p = 2 casts at GF(2^20) (kernels._xor_tables)
SIZE_LIMIT = 1 << 20
_TABLE_CHUNK = 1 << 10  # powers per block of the table build (its scratch)


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q = p^e with p prime; raises if q is not a prime power."""
    fs = prime_factors(q)
    if len(fs) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, e = fs[0], 0
    while q % p == 0:
        q //= p
        e += 1
    return p, e


# ---------------------------------------------------------------------------
# setup arithmetic: GF(p)-linear maps of digit row vectors
# ---------------------------------------------------------------------------

def _digits(codes, p: int, m: int) -> np.ndarray:
    """Base-p digits, ascending, of an int or an int array of codes, on
    a new last axis of length m."""
    return np.asarray(codes, dtype=np.int64)[..., None] // p ** np.arange(
        m, dtype=np.int64) % p


def _first(test, lo: int, hi: int) -> int:
    """Smallest code c in [lo, hi) that passes `test`, a mask over an
    array of codes, tried in blocks that double from 4 codes (fastest on
    GF(q^2), q <= 32): a hit at c costs O(log c) batched tests."""
    size = 4
    while lo < hi:
        codes = np.arange(lo, min(lo + size, hi))
        hit = np.flatnonzero(test(codes))
        if hit.size:
            return int(codes[hit[0]])
        lo, size = lo + size, 2 * size
    raise RuntimeError("no candidate passes")  # unreachable


def _companion(f, p: int) -> np.ndarray:
    """Multiplication by x modulo monic f on digit row vectors, for one f
    or a stack (..., m + 1): row j holds the digits of x^(j+1), so
    digits(a) @ C = digits(x a).  Products of digit vectors stay below
    m * p^2 <= 2^40 for orders up to SIZE_LIMIT, so int64 is exact."""
    f = np.asarray(f, dtype=np.int64)
    m = f.shape[-1] - 1
    C = np.broadcast_to(np.eye(m, k=1, dtype=np.int64),
                        f.shape[:-1] + (m, m)).copy()
    C[..., -1, :] = -f[..., :-1] % p
    return C


def _mat_pow(M: np.ndarray, e: int, p: int) -> np.ndarray:
    """M^e mod p for e >= 1 by left-to-right square-and-multiply; M may
    be a stack of matrices."""
    out = M
    for bit in bin(e)[3:]:
        out = out @ out % p
        if bit == "1":
            out = out @ M % p
    return out


def _times(codes, C: np.ndarray, p: int) -> np.ndarray:
    """a(C) = sum_i a_i C^i, multiplication by the element code a, for
    each of `codes`: row j holds the digits of a x^j, i.e. digits(a) @
    C^j, so that digits(a b) = digits(b) @ a(C)."""
    rows = [_digits(codes, p, len(C))]
    for _ in range(len(C) - 1):
        rows.append(rows[-1] @ C % p)
    return np.stack(rows, axis=-2)


def _irreducible(f, p: int) -> np.ndarray:
    """Rabin's test for monic f of degree m over GF(p), one or a stack,
    on the companion matrix C: f is irreducible iff C^(p^m) = C and, for
    each prime l | m, N = C^(p^(m/l)) - C is a unit.  Once C^(p^m) = C,
    GF(p)[x]/f is a product of fields GF(p^d) with d | m, so N is a unit
    iff N^(p^m - 1) = I."""
    C = _companion(f, p)
    m = C.shape[-1]
    frob = [C]  # frob[j] = C^(p^j)
    for _ in range(m):
        frob.append(_mat_pow(frob[-1], p, p))
    ok = (frob[m] == C).all(axis=(-2, -1))
    for ell in prime_factors(m):
        N = (frob[m // ell] - C) % p
        ok &= (_mat_pow(N, p**m - 1, p) == np.eye(m)).all(axis=(-2, -1))
    return ok


def smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p).

    Candidates f are ordered by the high-to-low coefficient tuple
    (c_{m-1}, ..., c_0), i.e. by the code p^m + c whose digits they are;
    for m = 1 that is x, giving GF(p) itself.
    """
    code = _first(lambda codes: _irreducible(_digits(codes, p, m + 1), p),
                  p**m, 2 * p**m)
    return tuple(_digits(code, p, m + 1).tolist())


class FieldContext:
    """A concrete GF(p^m) with fixed modulus and primitive element.

    Immutable after construction; all operations are pure functions of
    integer element codes, so a context is safe to share across threads.
    Obtain instances through :func:`build_field`; tests build other
    representations here directly.  The modulus must be monic of degree
    m and irreducible: otherwise ValueError, raised by the table build
    for a reducible one.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError(f"modulus {modulus} is not monic of degree {m}")
        self.p = p
        self.m = m
        self.order = p**m
        self.modulus = tuple(modulus)
        C = _companion(modulus, p)
        self.generator = self._find_generator(C)
        self.exp, self.log = self._build_tables(_times(self.generator, C, p))
        # g^((Q-1)/2) = -1 for odd p; -1 = 1 = g^0 for p = 2
        self.log_neg_one = 0 if p == 2 else (self.order - 1) // 2

    # -- construction helpers ------------------------------------------------

    def _find_generator(self, C: np.ndarray) -> int:
        """Smallest element code a of full multiplicative order:
        a(C)^((Q-1)/l) != I for every prime l | Q-1.  For m > 1 the
        search starts at code p: codes 1..p-1 are GF(p)'s nonzero
        elements, whose order divides p - 1 < Q - 1."""
        p, target = self.p, self.order - 1
        eye = np.eye(self.m, dtype=np.int64)

        def full_order(codes):
            A = _times(codes, C, p)
            ok = np.ones(len(codes), dtype=bool)
            for ell in prime_factors(target):
                ok &= ~(_mat_pow(A, target // ell, p) == eye).all(axis=(-2, -1))
            return ok

        return _first(full_order, p if self.m > 1 else 1, self.order)

    def _build_tables(self, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """exp[i] = g^i for i < 2(Q-1), else 0; log[g^i] = i, log[0] = 2(Q-1).

        T = g(C) is multiplication by g on digit vectors: digits(g*a) =
        digits(a) @ T.  So g^(s+i) has the digits of g^i times T^s.  The
        first block of powers comes from doubling (g^(L+i) = g^i g^L for
        i < L); every later block is the first one times T^s.  Only one
        block of digit vectors is held at a time, never a digit matrix of
        the whole field.
        """
        p, m, n = self.p, self.m, self.order - 1
        size = min(_TABLE_CHUNK, n)
        block = np.zeros((size, m), dtype=np.int64)
        block[0, 0] = 1
        step, filled = T, 1  # step = T^filled
        while filled < size:
            h = min(filled, size - filled)
            block[filled:filled + h] = block[:h] @ step % p
            step = step @ step % p
            filled *= 2
        # size is either n (one block) or _TABLE_CHUNK, a power of two,
        # and then step = T^size
        weights = p ** np.arange(m, dtype=np.int64)
        exp = np.zeros(4 * n + 1, dtype=np.int64)
        log = np.full(self.order, 2 * n, dtype=np.int64)
        shift = np.eye(m, dtype=np.int64)  # T^s
        for s in range(0, n, size):
            h = min(size, n - s)
            codes = (block[:h] @ shift % p) @ weights
            exp[s:s + h] = codes
            log[codes] = np.arange(s, s + h)
            shift = shift @ step % p
        if log[1:].max() == 2 * n:
            # a reducible f has zero divisors, which no power of g reaches
            raise ValueError(f"modulus {self.modulus} is reducible over "
                             f"GF({p})")
        exp[n:2 * n] = exp[:n]
        exp.setflags(write=False)
        log.setflags(write=False)
        return exp, log

    # -- public arithmetic on element codes -----------------------------------

    def add(self, a, b):
        """Digit-wise sum mod p of element codes, for ints or int arrays:
        digit i of the sum is (a // p^i + b // p^i) mod p."""
        if self.p == 2:
            return a ^ b
        p = self.p
        out = (a + b) % p
        pw = 1
        for _ in range(self.m - 1):
            a, b = a // p, b // p
            pw *= p
            out += (a + b) % p * pw
        return out

    def neg(self, a):
        """-a by the log shift exp[log a + log(-1)], for ints or int
        arrays."""
        out = self.exp[self.log[a] + self.log_neg_one]
        return out if isinstance(a, np.ndarray) else int(out)

    def mul(self, a: int, b: int) -> int:
        return int(self.exp[self.log[a] + self.log[b]])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("zero has no inverse")
            return 0 if e else 1
        return int(self.exp[(int(self.log[a]) * e) % (self.order - 1)])

    def descriptor(self) -> dict:
        """Small serializable record pinning the field representation."""
        return {
            "p": self.p,
            "m": self.m,
            "order": self.order,
            "modulus": list(self.modulus),
            "generator": self.generator,
        }

    def __repr__(self) -> str:
        return f"GF({self.order})"


# keyed by (p, m): an lru_cache on build_field keys (3, 2) and p=3, m=2 apart
_FIELD_CACHE: dict[tuple[int, int], FieldContext] = {}


def build_field(p: int, m: int) -> FieldContext:
    """Construct (or fetch the cached) GF(p^m), of order at most
    SIZE_LIMIT, under the lexicographically smallest monic irreducible."""
    ctx = _FIELD_CACHE.get((p, m))
    if ctx is None:
        if not is_prime(p) or m < 1:
            raise ValueError(f"p={p}, m={m} name no field GF(p^m)")
        if p**m > SIZE_LIMIT:
            raise ValueError(
                f"field order {p**m} exceeds the size ceiling {SIZE_LIMIT}")
        ctx = FieldContext(p, m, smallest_irreducible(p, m))
        _FIELD_CACHE[(p, m)] = ctx
    return ctx


def _check_conj_compat(ctx: FieldContext, q: int) -> None:
    qp, qe = factor_prime_power(q)
    if qp != ctx.p or ctx.m % qe != 0:
        raise ValueError(
            f"conjugation exponent q={q} incompatible with GF({ctx.order})")

