"""Constacyclic defining sets of the families, in closed form.

A defining set Z lives modulo rn and is restricted to
Omega = {1 + ri : 0 <= i < n} (all residues when r = 1).  Every modulus
rn the families use divides q^2 - 1 or, for family i, q^2 + 1, so q^2
is +-1 modulo it and each q^2-cyclotomic coset is {z} or {z, -z}: every
family's Z is one run of consecutive Omega indices on the circle of n
indices.  A DefiningSet is that run as four integers, modulus, r, start
and size, and its elements are derived from them.  Its start fixes the
order of a parity check's power rows (codes); offset places one run in
another and hull finds the least run that holds several, by arithmetic
on the circle.  parameter_ranges owns each family's length and the
admissible range of its construction parameters: the defining-set
parameters of the constacyclic families i and iii-v, and the number r
of parity rows of family ii's extended Reed-Solomon code.  The family
metadata of eaqecc, the lemma sweeps and defining_set itself all read
them from there, and check_parameters rejects a parameter missing from
them, outside its range or not taken by the family.  VARIABLE_LENGTH
names the families whose length n is a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class DefiningSet:
    """Exponent set Z of a constacyclic code's generator-polynomial roots:
    the run of `size` Omega indices start, start + 1, ... (mod n), where
    the Omega index i stands for z = 1 + r i (z = i when r = 1).  The
    empty and the full set start at 0, so equal sets compare equal."""

    modulus: int                  # rn
    r: int                        # constacyclic order (1 cyclic, 2 negacyclic)
    start: int
    size: int

    def __post_init__(self):
        if self.modulus % self.r:
            raise ValueError("constacyclic order must divide the modulus")
        n = self.n
        if not 0 <= self.size <= n:
            raise ValueError(f"run of {self.size} indices outside [0, {n}]")
        if not 0 <= self.start < n:
            raise ValueError(f"run start {self.start} outside [0, {n})")
        if self.start and self.size in (0, n):
            raise ValueError("the empty and the full set start at 0")

    @property
    def n(self) -> int:
        return self.modulus // self.r

    @cached_property
    def elements(self) -> frozenset[int]:
        return frozenset(self.in_run_order())

    def sorted(self) -> list[int]:
        return sorted(self.elements)

    def in_run_order(self) -> list[int]:
        """The elements from start on round the circle: the order of a
        parity check's power rows."""
        r, n, start = self.r, self.n, self.start
        base = 0 if r == 1 else 1
        return [base + r * ((start + k) % n) for k in range(self.size)]

    def offset(self, part: DefiningSet) -> int:
        """The circular offset of part's start from this run's start, for
        a run part inside this one; ValueError if it is not inside."""
        off = (part.start - self.start) % self.n
        if part.size and self.size < self.n and off + part.size > self.size:
            raise ValueError("exponents outside the defining set")
        return off

    def __len__(self) -> int:
        return self.size


def hull(parts: list[DefiningSet]) -> DefiningSet:
    """The least run that holds every part, runs of one modulus and r:
    their union, which must be one run; ValueError if it is not.  The
    arcs [start, start + size) are merged in order of start, and the last
    one merged may wrap round onto the first."""
    n, r = parts[0].n, parts[0].r
    arcs: list[list[int]] = []
    for s, e in sorted((p.start, p.start + p.size) for p in parts if p.size):
        if arcs and s <= arcs[-1][1]:
            arcs[-1][1] = max(arcs[-1][1], e)
        else:
            arcs.append([s, e])
    while len(arcs) > 1 and arcs[-1][1] >= arcs[0][0] + n:
        arcs[-1][1] = max(arcs[-1][1], arcs.pop(0)[1] + n)
    if len(arcs) > 1:
        raise ValueError("the union of the defining sets is not one run")
    s, e = arcs[0] if arcs else (0, 0)
    return omega_run(n, r, s, e - 1)


# the only families that take a length n; the others have a fixed length
VARIABLE_LENGTH = ("i", "iii")


def parameter_ranges(family: str, q: int, n: int | None = None,
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
        raise ValueError(f"family {family} has a fixed length; n applies "
                         f"to families {' and '.join(VARIABLE_LENGTH)} only")
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


def check_parameters(family: str, q: int, n: int | None = None,
                     t: int | None = None, odd: bool = False,
                     **given: int | None) -> int:
    """Length n of one family instance, once each of its construction
    parameters is given and inside parameter_ranges, and no parameter of
    another family is; ValueError if not."""
    n, ranges = parameter_ranges(family, q, n, t, odd)
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


def omega_run(n: int, r: int, lo: int, hi: int) -> DefiningSet:
    """Z of the Omega indices lo..hi, taken modulo n: z = i when r = 1,
    z = 1 + r*i otherwise; a run from lo % n (from 0 when it is empty or
    covers Z_n)."""
    size = max(0, min(hi - lo + 1, n))
    return DefiningSet(r * n, r, lo % n if 0 < size < n else 0, size)


def defining_set(family: str, q: int, *, n: int | None = None,
                 t: int | None = None, odd: bool = False,
                 **params: int | None) -> DefiningSet:
    """Defining set of one family instance, with parameters (delta, or
    delta1 and delta2) inside parameter_ranges; check_parameters rejects
    any other name.  q^2 is +-1 modulo each family's modulus, so the
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
    n = check_parameters(family, q, n, t, odd, **params)
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
