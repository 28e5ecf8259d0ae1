"""The family table and its defining sets: runs of Omega indices.

A defining set Z lives modulo rn and is restricted to
Omega = {1 + ri : 0 <= i < n} (all residues when r = 1).  Every modulus
rn the families use divides q^2 - 1 or, for family i, q^2 + 1, so q^2
is +-1 modulo it and each q^2-cyclotomic coset is {z} or {z, -z}: every
family's Z is one run of consecutive Omega indices on the circle of n
indices.  A DefiningSet is that run as four integers, modulus, r, start
and size, and its elements are derived from them.  Its start fixes the
order of a parity check's power rows (codes); offset places one run in
another and hull finds the least run that holds several, by arithmetic
on the circle.  The family table is group: one Group row per family
group (family, q, t, n), with the length, c, the QMDS d_max, the
parameter ranges and the window of Omega indices of each parameter set,
which the rest of the package reads and does not branch on the family.
Family ii's windows are runs 0..r-1 of the cyclic Reed-Solomon code of
length q^2 - 1, extended by the point 0.  Only Group.check validates
parameters, for outside input; the sweeps draw them from the row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, partial


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


def omega_run(n: int, r: int, lo: int, hi: int) -> DefiningSet:
    """Z of the Omega indices lo..hi, taken modulo n: z = i when r = 1,
    z = 1 + r*i otherwise; a run from lo % n (from 0 when it is empty or
    covers Z_n)."""
    size = max(0, min(hi - lo + 1, n))
    return DefiningSet(r * n, r, lo % n if 0 < size < n else 0, size)


# family -> the comparison table's name for its construction, and what
# it takes beyond q: "n" (a length other than the default), "t" (the
# constacyclic order) or nothing
_FAMILY = {"i": ("cyclic, n | q^2+1", "n"),
           "ii": ("extended Reed-Solomon", ""),
           "iii": ("cyclic, n | q^2-1", "n"), "iv": ("negacyclic", ""),
           "v": ("constacyclic order t", "t")}
FAMILIES = tuple(_FAMILY)


def takers(param: str) -> list[str]:
    """The families that take param ("n" or "t") beyond q."""
    return [family for family in FAMILIES if _FAMILY[family][1] == param]


@dataclass(frozen=True, kw_only=True)
class Group:
    """One family group (family, q, t, n) as one row of the family table.

    Each instance is the window lo..hi of Omega indices on the circle of
    the group's defining sets, lo = anchor - left and hi = anchor + right
    - 1 + shift, where left and right are the values of the parameters
    named left and right (no left parameter: 0) and shift is that of the
    window's kind.  Its defining set is run(lo, hi), of hi - lo + 1
    indices, so d = hi - lo + 2.  Every window holds at least one index.
    """

    family: str
    q: int
    n: int                     # length of every code of the group
    qmds_d_max: int            # the comparison table's largest QMDS d at n
    # (shift, the range of each parameter) of each kind of window: one
    # kind, or family iii's even-d kind and then its odd-d kind (odd=True)
    kinds: tuple[tuple[int, dict[str, range]], ...]
    t: int | None = None       # family v's constacyclic order
    r: int = 1                 # constacyclic order of the defining sets
    c: int = 1                 # ebit count rank(H H^dagger) of every code
    anchor: int = 0
    left: str | None = "delta"
    right: str = "delta"
    point0: bool = False       # H has a column for the point 0 off the circle
    d_parity: str = "any"      # "even" for family i's [-delta, delta]
    construction: str          # the table's name for it, from _FAMILY
    takes: str                 # "n", "t" or "", from _FAMILY

    def k(self, d: int) -> int:
        """k = n + c + 2 - 2d: the EA-Singleton bound met with equality."""
        return self.n + self.c + 2 - 2 * d

    def run(self, lo: int, hi: int) -> DefiningSet:
        """The defining set of the window lo..hi."""
        return omega_run(self.n - self.point0, self.r, lo, hi)

    def window(self, params: dict) -> tuple[int, int]:
        """(lo, hi) of a parameter set of the grid, unchecked."""
        shift = self.kinds[params.get("odd", False)][0]
        left = params[self.left] if self.left else 0
        return self.anchor - left, self.anchor + params[self.right] - 1 + shift

    def grid(self) -> list[dict]:
        """Every parameter set of the group in sweep order: each kind in
        turn (odd False, then True, for family iii, which alone gets an
        odd key), over the product of its ranges, the first outermost."""
        out = []
        for odd, (_, ranges) in enumerate(self.kinds):
            flag = {"odd": bool(odd)} if len(self.kinds) > 1 else {}
            out += [dict(zip(ranges, values), **flag)
                    for values in itertools.product(*ranges.values())]
        return out

    def instances(self) -> dict[int, tuple[int, int]]:
        """Each admissible distance, ascending, mapped to its window: of
        the windows of d - 1 indices, the one with the largest right
        parameter."""
        out = {}
        for params in sorted(self.grid(), key=lambda kw: kw[self.right]):
            lo, hi = self.window(params)
            out[hi - lo + 2] = lo, hi
        return dict(sorted(out.items()))

    def check(self, odd: bool = False, **given: int | None) -> tuple[int, int]:
        """The window of explicit parameters, as outside input gives them;
        ValueError unless each parameter of the kind is given and inside
        its range, and no other parameter is: odd only for family iii."""
        family = self.family
        if odd and len(self.kinds) == 1:
            raise ValueError(f"family {family} takes "
                             f"{' and '.join(self.kinds[0][1])}, not odd")
        ranges = self.kinds[odd][1]
        for name, span in ranges.items():
            if given.get(name) is None:
                raise ValueError(
                    f"family {family} (extended RS) is not constacyclic and "
                    "has no defining set" if self.point0 else
                    f"family {family} needs {' and '.join(ranges)}")
            if not span:
                raise ValueError(f"family {family} admits no {name} at "
                                 f"q={self.q}, n={self.n}")
            if given[name] not in span:
                raise ValueError(f"{name}={given[name]} outside "
                                 f"[{span.start}, {span.stop - 1}]")
        for name, value in given.items():
            if value is not None and name not in ranges:
                raise ValueError(f"family {family} takes "
                                 f"{' and '.join(ranges)}, not {name}")
        return self.window({**given, "odd": odd})


def group(family: str, q: int, t: int | None = None,
          n: int | None = None) -> Group:
    """The group of one family at q, t (kept for family v alone) and n
    (None: the default length); ValueError when it admits none.

    family "i"  : n | q^2+1 (default q^2+1), cyclic,
                  0 <= delta <= n // (q+1), i in [-delta, delta]
    family "ii" : n = q^2, q <= r <= 2q-2 parity rows: i in [0, r-1] of
                  the cyclic RS code of length q^2-1, then the point 0
    family "iii": n | q^2-1 (default q^2-1), cyclic,
                  0 <= delta <= n // (q+1) - 1, i in [-delta, delta]; for
                  odd d, 1 <= delta and i in [-delta, delta-1]
    family "iv" : odd q, n = (q^2-1)/2, negacyclic, z = 2j-1 for j in
                  [-delta1, delta2], so i in [-delta1-1, delta2-1], with
                  0 <= delta1 <= (q-1)/2 - 1, (q+1)/2 <= delta2 <= q-1
    family "v"  : odd q, odd t >= 3 with t | q+1, n = (q^2-1)/t,
                  constacyclic order t, i in [e0-delta1, e0+delta2]
                  around the anchor 1 + t*e0 = (t-1)(q-1)/2, both deltas
                  in [(t-1)(q+1)/(2t), (t+1)(q+1)/(2t) - 2]
    """
    if family not in _FAMILY:
        raise ValueError(f"unknown family {family!r}")
    construction, takes = _FAMILY[family]
    row = partial(Group, family=family, q=q, construction=construction,
                  takes=takes)
    qsq = q * q
    if family == "i":
        n = qsq + 1 if n is None else n
        if n < 2 or (qsq + 1) % n:
            raise ValueError(f"family i needs n | q^2+1 with n >= 2, got n={n}")
        return row(n=n, qmds_d_max=q + 1, d_parity="even",
                   kinds=((1, {"delta": range(n // (q + 1) + 1)}),))
    if family == "iii":
        n = qsq - 1 if n is None else n
        if n < 2 or (qsq - 1) % n:
            raise ValueError(f"family iii needs n | q^2-1 with n >= 2, got n={n}")
        top = n // (q + 1)
        return row(n=n, qmds_d_max=q - 1, kinds=(
            (1, {"delta": range(top)}), (0, {"delta": range(1, top)})))
    if n is not None:
        raise ValueError(f"family {family} has a fixed length; n applies "
                         f"to families {' and '.join(takers('n'))} only")
    if family == "ii":
        return row(n=qsq, qmds_d_max=q, left=None, right="r", point0=True,
                   kinds=((0, {"r": range(q, 2 * q - 1)}),))
    if family == "iv":
        if q % 2 == 0:
            raise ValueError("family iv needs odd q")
        return row(n=(qsq - 1) // 2, qmds_d_max=q, r=2, c=2, anchor=-1,
                   left="delta1", right="delta2",
                   kinds=((1, {"delta1": range((q - 1) // 2),
                               "delta2": range((q + 1) // 2, q)}),))
    if t is None or q % 2 == 0 or t < 3 or t % 2 == 0 or (q + 1) % t:
        raise ValueError("family v needs odd q, odd t >= 3, t | q+1")
    span = range((t - 1) * (q + 1) // (2 * t),
                 (t + 1) * (q + 1) // (2 * t) - 1)
    # t | q+1 makes e0 an integer
    return row(n=(qsq - 1) // t, t=t, r=t, c=t,
               qmds_d_max=(t + 1) * (q + 1) // (2 * t) - 1,
               anchor=((t - 1) * (q - 1) - 2) // (2 * t),
               left="delta1", right="delta2",
               kinds=((1, {"delta1": span, "delta2": span}),))


def groups(family: str, q: int, t: int | None = None) -> list[Group]:
    """The groups of one family at q (and t) by ascending length: for a
    family that takes n, one for each divisor n >= 2 of its default
    length; else its one group; none when it admits no (q, t)."""
    try:
        default = group(family, q, t)
    except ValueError:
        return []
    if default.takes != "n":
        return [default]
    return [group(family, q, t, n) for n in range(2, default.n + 1)
            if default.n % n == 0]
