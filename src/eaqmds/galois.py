"""Exact arithmetic in finite fields GF(p^m).

Elements are stored as integers in [0, p^m): the base-p digits of the
integer are the coefficients (ascending degree) of the element's
polynomial over GF(p), taken modulo the field's irreducible modulus f.
The package builds one representation of each field: build_field caches
one FieldContext per (p, m), under the smallest monic irreducible f.

Setup works on scalar polynomials over GF(p), as coefficient lists:
Ben-Or's test picks f, one candidate at a time, the primitive element g
passes a^((Q-1)/l) != 1 mod f for each prime l | Q-1, and the same
product gives T, multiplication by g on digit vectors.  Only the exp/log
tables, which grow with the field, are built in numpy, by doubling with
T.  Family i's traces are one sequence per field, read by stride, in codes.

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
# setup arithmetic: polynomials over GF(p) as ascending coefficient lists
# ---------------------------------------------------------------------------

def _digits(code: int, p: int, m: int) -> list[int]:
    """The m base-p digits, ascending, of an element code."""
    return [code // p**i % p for i in range(m)]


def _mulmod(a: list[int], b: list[int], f, p: int) -> list[int]:
    """a b mod monic f over GF(p), for a and b of m = len(f) - 1
    coefficients each, as is the result."""
    m = len(f) - 1
    out = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    for k in range(2 * m - 2, m - 1, -1):  # cancel c x^k by c x^(k-m) f
        c = out[k] % p
        if c:
            for j in range(m):
                out[k - m + j] -= c * f[j]
    return [c % p for c in out[:m]]


def _powmod(a: list[int], e: int, f, p: int) -> list[int]:
    """a^e mod f for e >= 1 by left-to-right square-and-multiply."""
    out = a
    for bit in bin(e)[3:]:
        out = _mulmod(out, out, f, p)
        if bit == "1":
            out = _mulmod(out, a, f, p)
    return out


def _coprime(a: list[int], b: list[int], p: int) -> bool:
    """True iff gcd(a, b) over GF(p) is a unit, by Euclid's algorithm:
    each step cancels the lead of the longer by that of the shorter."""
    a, b = list(a), list(b)
    while True:
        for r in (a, b):
            while r and not r[-1]:
                r.pop()
        if not (a and b):
            return len(a or b) == 1
        if len(a) < len(b):
            a, b = b, a
        c, shift = a[-1] * pow(b[-1], -1, p) % p, len(a) - len(b)
        for j, bj in enumerate(b):
            a[shift + j] = (a[shift + j] - c * bj) % p


def _irreducible(f, p: int) -> bool:
    """Ben-Or's test for a monic f of degree m over GF(p), as ascending
    coefficients: f is irreducible iff gcd(x^(p^i) - x, f) = 1 for 1 <=
    i <= m/2, since a reducible f has an irreducible factor of some
    degree d <= m/2, which divides x^(p^d) - x.  A reducible f fails at
    i = d for the least such d, most often at i = 1 on a linear factor."""
    m = len(f) - 1
    h = _digits(p, p, m)  # x, for m >= 2
    for _ in range(m // 2):
        h = _powmod(h, p, f, p)  # x^(p^i)
        if not _coprime([h[0], (h[1] - 1) % p, *h[2:]], f, p):
            return False
    return True


def smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p).

    Candidates f are ordered by the high-to-low coefficient tuple
    (c_{m-1}, ..., c_0), i.e. by the code p^m + c whose digits they are,
    and tested one at a time; for m = 1 that is x, giving GF(p) itself.
    """
    return next(f for f in (tuple(_digits(c, p, m)) + (1,)
                            for c in range(p**m)) if _irreducible(f, p))


def _check_field(p: int, m: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if m < 1:
        raise ValueError(f"m={m} is below 1")


class FieldContext:
    """A concrete GF(p^m) with fixed modulus and primitive element.

    Immutable after construction; all operations are pure functions of
    integer element codes, so a context is safe to share across threads.
    Obtain instances through :func:`build_field`; tests build other
    representations here directly.  p must be prime, m >= 1 and the
    modulus monic of degree m, with coefficients in [0, p), and
    irreducible: otherwise ValueError, raised by the table build for a
    reducible one.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        _check_field(p, m)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError(f"modulus {modulus} is not monic of degree {m}")
        if not all(0 <= c < p for c in modulus):
            raise ValueError(f"modulus {modulus} has a digit outside [0, {p})")
        self.p = p
        self.m = m
        self.order = p**m
        self.modulus = tuple(modulus)
        self.generator = self._find_generator()
        # T, multiplication by g on digit rows: row j holds the digits of
        # g x^j mod f (x is the code p), so digits(g a) = digits(a) @ T
        rows = [_digits(self.generator, p, m)]
        for _ in range(m - 1):
            rows.append(_mulmod(rows[-1], _digits(p, p, m), modulus, p))
        self.exp, self.log = self._build_tables(np.array(rows, dtype=np.int64))
        # g^((Q-1)/2) = -1 for odd p; -1 = 1 = g^0 for p = 2
        self.log_neg_one = 0 if p == 2 else (self.order - 1) // 2

    # -- construction helpers ------------------------------------------------

    def _find_generator(self) -> int:
        """Smallest element code a of full multiplicative order: a^((Q-1)/l)
        != 1 mod f for every prime l | Q-1.  For m > 1 the search starts
        at code p: codes 1..p-1 are GF(p)'s nonzero elements, whose order
        divides p - 1 < Q - 1.  If f is reducible a zero divisor passes,
        and the table build refuses it."""
        p, m, f, target = self.p, self.m, self.modulus, self.order - 1
        one = _digits(1, p, m)
        ells = prime_factors(target)
        return next(a for a in range(p if m > 1 else 1, self.order)
                    if all(_powmod(_digits(a, p, m), target // ell, f, p)
                           != one for ell in ells))

    def _build_tables(self, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """exp[i] = g^i for i < 2(Q-1), else 0; log[g^i] = i, log[0] = 2(Q-1).

        T is multiplication by g on digit vectors: digits(g*a) =
        digits(a) @ T.  So g^(s+i) has the digits of g^i times T^s.  The
        first block of powers comes from doubling (g^(L+i) = g^i g^L for
        i < L); every later block is the first one times T^s.  Only one
        block of digit vectors is held at a time, never a digit matrix of
        the whole field.  Digit products sum to below m p^2 <= 2^40 for
        orders up to SIZE_LIMIT, so int64 is exact.
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


def check_order(order: int) -> None:
    """Refuse a field order above SIZE_LIMIT."""
    if order > SIZE_LIMIT:
        raise ValueError(
            f"field order {order} exceeds the size ceiling {SIZE_LIMIT}")


def build_field(p: int, m: int) -> FieldContext:
    """Construct (or fetch the cached) GF(p^m), of order at most
    SIZE_LIMIT, under the lexicographically smallest monic irreducible."""
    ctx = _FIELD_CACHE.get((p, m))
    if ctx is None:
        _check_field(p, m)
        check_order(p**m)
        ctx = FieldContext(p, m, smallest_irreducible(p, m))
        _FIELD_CACHE[(p, m)] = ctx
    return ctx


def _check_conj_compat(ctx: FieldContext, q: int) -> None:
    qp, qe = factor_prime_power(q)
    if qp != ctx.p or ctx.m % qe != 0:
        raise ValueError(
            f"conjugation exponent q={q} incompatible with GF({ctx.order})")

