"""Exact arithmetic in finite fields GF(p^m).

Elements are stored as integers in [0, p^m): the base-p digits of the
integer are the coefficients (ascending degree) of the element's
polynomial representation over GF(p).  Every field carries exp/log
tables of a primitive element, so multiplication, inversion and powers
reduce to index arithmetic.  FieldContext owns element arithmetic for
scalar callers and the vectorized kernels alike: `add` is the one
digit-wise addition mod p (XOR for p = 2) and takes ints or int arrays,
and `log_neg_one`, log(-1), is the one shift behind negation.
Arithmetic on polynomials modulo the field's irreducible modulus finds
the primitive element and the multiplication matrix the tables are
built from, and the test suite checks the tables against it.

The conjugation map a -> a^q (see algebra.hermitian_adjoint) backs the
Hermitian inner product on GF(q^2)^n.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

SIZE_LIMIT = 1 << 20  # hard ceiling on field order: 24 MB of tables
_TABLE_CHUNK = 1 << 10  # powers per block of the table build (its scratch)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q = p^e with p prime; raises if q is not a prime power."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    fs = prime_factors(q)
    if len(fs) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = fs[0]
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    if q != 1:
        raise ValueError(f"{q * p**e} is not a prime power")
    return p, e


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); coefficient lists ascending, not normalized
# ---------------------------------------------------------------------------

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    # mod is monic
    a = list(a)
    dm = len(mod) - 1
    while len(a) > dm:
        c = a[-1]
        if c:
            shift = len(a) - 1 - dm
            for i in range(dm):
                a[shift + i] = (a[shift + i] - c * mod[i]) % p
        a.pop()
    return _poly_trim(a)


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        # reduce a mod b (b made monic on the fly)
        inv_lead = pow(b[-1], -1, p)
        bm = [(c * inv_lead) % p for c in b]
        a, b = b, _poly_mod(a, bm, p)
    return a


def _poly_powmod_x(e: int, mod: list[int], p: int) -> list[int]:
    """x^e mod `mod` by square-and-multiply."""
    result = [1]
    base = _poly_mod([0, 1], mod, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), mod, p)
        base = _poly_mod(_poly_mul(base, base, p), mod, p)
        e >>= 1
    return result


def is_irreducible(coeffs: list[int], p: int) -> bool:
    """Rabin's test for a monic polynomial over GF(p)."""
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] != 1:
        return False
    if m == 1:
        return True
    # x^(p^m) == x (mod f)
    if _poly_powmod_x(p**m, coeffs, p) != [0, 1]:
        return False
    for ell in prime_factors(m):
        xk = _poly_powmod_x(p ** (m // ell), coeffs, p)
        diff = list(xk)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(coeffs, _poly_trim(diff), p)
        if len(g) - 1 > 0:
            return False
    return True


@lru_cache(maxsize=None)
def smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p).

    Candidates are ordered by the high-to-low coefficient tuple
    (c_{m-1}, ..., c_0), i.e. by ascending value of the base-p encoding
    of the non-leading coefficients.  Cached, because build_field needs
    it to find the key of its own field cache.
    """
    if m == 1:
        return (0, 1)  # x, giving GF(p) itself
    for lower in range(p**m):
        coeffs = _int_to_digits(lower, p, m) + [1]
        if is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def _int_to_digits(code: int, p: int, m: int) -> list[int]:
    out = []
    for _ in range(m):
        out.append(code % p)
        code //= p
    return out


def _digits_to_int(digits: list[int], p: int) -> int:
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


class FieldContext:
    """A concrete GF(p^m) with fixed modulus and primitive element.

    Immutable after construction; all operations are pure functions of
    integer element codes, so a context is safe to share across threads.
    Obtain instances through :func:`build_field`.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.order = p**m
        self.modulus = modulus
        self._mod_list = list(modulus)
        self.generator = self._find_generator()
        self.exp, self.log = self._build_tables()
        # g^((Q-1)/2) = -1 for odd p; -1 = 1 = g^0 for p = 2
        self.log_neg_one = 0 if p == 2 else (self.order - 1) // 2

    # -- construction helpers ------------------------------------------------

    def _find_generator(self) -> int:
        """Smallest element code of full multiplicative order."""
        target = self.order - 1
        if target == 1:
            return 1
        primes = prime_factors(target)
        for cand in range(2, self.order):
            if all(self._pow_poly(cand, target // ell) != 1 for ell in primes):
                return cand
        raise RuntimeError("no primitive element found")  # unreachable

    def _build_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """exp[i] = g^i for 0 <= i < 2(Q-1), and log[g^i] = i, log[0] = -1.

        Multiplication by g is GF(p)-linear on digit vectors: digits(g*a)
        = digits(a) @ T, with row j of T the digits of g*x^j.  So g^(s+i)
        has the digits of g^i times T^s.  The first block of powers comes
        from doubling (g^(L+i) = g^i g^L for i < L); every later block is
        the first one times T^s.  Only one block of digit vectors is held
        at a time, never a digit matrix of the whole field.  Products of
        digit vectors stay below m * p^2 <= 2^40 for orders up to
        SIZE_LIMIT, so int64 is exact.
        """
        p, m, n = self.p, self.m, self.order - 1
        g = self.generator
        T = np.array([_int_to_digits(self._mul_poly(g, p**j), p, m)
                      for j in range(m)], dtype=np.int64)
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
        exp = np.empty(2 * n, dtype=np.int64)
        log = np.full(self.order, -1, dtype=np.int64)
        shift = np.eye(m, dtype=np.int64)  # T^s
        for s in range(0, n, size):
            h = min(size, n - s)
            codes = (block[:h] @ shift % p) @ weights
            exp[s:s + h] = codes
            log[codes] = np.arange(s, s + h)
            shift = shift @ step % p
        if log[1:].min() < 0:
            raise RuntimeError("generator does not have full order")
        exp[n:] = exp[:n]
        exp.setflags(write=False)
        log.setflags(write=False)
        return exp, log

    # -- polynomial arithmetic: generator search and table build --------------

    def _mul_poly(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        prod = _poly_mul(_int_to_digits(a, self.p, self.m),
                         _int_to_digits(b, self.p, self.m), self.p)
        return _digits_to_int(_poly_mod(prod, self._mod_list, self.p), self.p)

    def _pow_poly(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        e %= self.order - 1
        result, base = 1, a
        while e:
            if e & 1:
                result = self._mul_poly(result, base)
            base = self._mul_poly(base, base)
            e >>= 1
        return result

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
        la = self.log[a]
        if isinstance(a, np.ndarray):
            return np.where(la >= 0, self.exp[la + self.log_neg_one], 0)
        return int(self.exp[la + self.log_neg_one]) if a else 0

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[self.log[a] + self.log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return int(self.exp[(self.order - 1) - self.log[a]])

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


_FIELD_CACHE: dict[tuple, FieldContext] = {}


def build_field(p: int, m: int, modulus: list[int] | tuple[int, ...] | None = None
                ) -> FieldContext:
    """Construct (or fetch the cached) GF(p^m), of order at most SIZE_LIMIT.

    `modulus` overrides the default lexicographically smallest monic
    irreducible; it must be monic of degree m over GF(p).
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if m < 1:
        raise ValueError(f"extension degree m={m} must be >= 1")
    if p**m > SIZE_LIMIT:
        raise ValueError(
            f"field order {p**m} exceeds the size ceiling {SIZE_LIMIT}")
    if modulus is None:
        mod = smallest_irreducible(p, m)
    else:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != m + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        if not is_irreducible(list(mod), p):
            raise ValueError(f"modulus {list(mod)} is reducible over GF({p})")
    key = (p, m, mod)
    ctx = _FIELD_CACHE.get(key)
    if ctx is None:
        ctx = FieldContext(p, m, mod)
        _FIELD_CACHE[key] = ctx
    return ctx


def _check_conj_compat(ctx: FieldContext, q: int) -> None:
    qp, qe = factor_prime_power(q)
    if qp != ctx.p or ctx.m % qe != 0:
        raise ValueError(
            f"conjugation exponent q={q} incompatible with GF({ctx.order})")

