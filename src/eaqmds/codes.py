"""Concrete classical codes over GF(q^2) as parity-check matrices.

Every code lives over GF(q^2), the one context that build_field caches
for it: a ClassicalCode holds its parity check H as a read-only int64
array next to that field, and its generator matrix is the nullspace of
H, read off the RREF from kernels.eliminate.  A
lambda-constacyclic code of length n and shift order r, with defining
set Z modulo rn, is built by constacyclic_code from one cached root table
of GF(q^2):

* rn | q^2-1: the roots eta^z lie in GF(q^2) and row z is
  (eta^{zj})_j, read off the power table E[m] = eta^m.
* n | q^2+1 (family i, r = 1): the roots beta^z lie only in the
  quadratic extension of GF(q^2), but Z = -Z and the traces
  tr[m] = beta^m + beta^-m lie in GF(q^2).  The pair {z, n-z} gives the
  rows tr[zj] and tr[z(j+1)], which are [[1, 1], [beta^z, beta^-z]]
  times the root rows (beta^{zj}), (beta^{-zj}); that matrix is
  invertible when 2z != 0 (mod n).  z = 0 gives the all-ones row and
  z = n/2 the row ((-1)^j).  So the root matrix is T H with T invertible
  over the extension: the same code and the same rank(H H^dagger).
  Each field has one trace sequence, for a beta of order N = q^2+1,
  and the table of every n | N is its view with stride N/n.

lambda = eta^n is a primitive r-th root of unity (1 for the cyclic
families, -1 for the negacyclic family iv).  Z is one run, so the BCH
bound gives the design distance |Z| + 1.

Power rows run in the circular order of their Omega indices from the
start of Z's run (DefiningSet.in_run_order), so row k of a run has the
index start + k (mod n).  Trace rows come as z = 0, then each pair
{z, n-z} by z = 1, 2, ..., then z = n/2.  Row z of H depends only on
z, so the code of a run inside Z has as parity check a contiguous block
of Z's rows: parity_rows finds it by DefiningSet.offset and subcode
reads the nested code off it as a view of H.  Family ii's extended
Reed-Solomon code is the cyclic RS code of the run 0..r-1 modulo q^2-1
with one more column, that of the point 0, which is 0^z on row z: so
its rows nest in the same way, and its ClassicalCode holds the run but
no defining set.

rank(H) = |Z| is proved from H's leading square block with no
elimination, by the one proof of H's row kind: power rows make it
Vandermonde (_vandermonde), in any row order, and trace rows T times a
Vandermonde matrix over the extension, which _lucas_vandermonde reads
off the trace entries alone.  The independent rows of the larger H
prove those of every subset.  A block that fails its proof is refused
with a VerificationError, never eliminated.  The point 0's column
comes after the proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .cosets import DefiningSet
from .galois import FieldContext, build_field, factor_prime_power


class VerificationError(ValueError):
    """A constructed code contradicts the EA-Singleton bound or its
    family's theory."""


@lru_cache(maxsize=None)
def _power_table(f: FieldContext, rn: int) -> np.ndarray:
    """E[m] = eta^m (m < rn) for eta = g^((Q-1)/rn), a primitive rn-th
    root of unity of f."""
    table = f.exp[np.arange(rn) * ((f.order - 1) // rn)]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _trace_sequence(f: FieldContext) -> np.ndarray:
    """tr[m] = beta^m + beta^-m (m < N = Q+1) for a beta of order N over
    f = GF(Q), one per field.  tr is the Lucas sequence V_0 = 2, V_1 =
    t, V_{m+1} = t V_m - V_{m-1}, and beta^m = 1 iff V_m = 2, so t is the
    smallest element code whose sequence first returns to 2 at m = N.
    Products and negation are reads of list copies of f's tables."""
    N = f.order + 1
    exp, log = f.exp.tolist(), f.log.tolist()
    two, neg = f.add(1, 1), f.log_neg_one
    for t in range(f.order):
        tr, lt = [two, t], log[t]
        while tr[-1] != two and len(tr) <= N:
            tr.append(f.add(exp[lt + log[tr[-1]]], exp[neg + log[tr[-2]]]))
        if tr[-1] == two and len(tr) == N + 1:
            table = np.array(tr[:N], dtype=np.int64)
            table.setflags(write=False)
            return table
    raise RuntimeError(f"no element of order {N} over GF({f.order})")


def _trace_table(f: FieldContext, n: int) -> np.ndarray:
    """tr[m] = beta^m + beta^-m (m < n) for a primitive n-th root of
    unity beta over f, n | N = Q+1: the read-only view of the field's one
    trace sequence with stride N/n, as beta_N^(N/n) has order exactly n."""
    return _trace_sequence(f)[::(f.order + 1) // n]


@dataclass(eq=False)
class ClassicalCode:
    """[n, k, d_design] code over GF(q^2) via its parity check H, a
    read-only int64 array of element codes of `field`."""

    n: int
    k: int
    d_design: int
    H: np.ndarray
    q: int
    field: FieldContext
    run: DefiningSet | None = None    # the exponents of H's rows
    family: str | None = None

    def __post_init__(self):
        if self.d_design > self.n - self.k + 1:
            raise ValueError("design distance violates the Singleton bound")
        self.H.setflags(write=False)

    @property
    def defining_set(self) -> DefiningSet | None:
        """run, when the code is constacyclic on run's circle; None when
        H also has the column of the point 0, as family ii's has."""
        return self.run if self.run is not None and self.run.n == self.n \
            else None

    def __repr__(self) -> str:
        return (f"ClassicalCode([{self.n},{self.k},{self.d_design}] "
                f"over GF({self.field.order}))")


def _closed(Z: DefiningSet) -> bool:
    """True iff the run Z = -Z: empty, full, or with first and last index
    summing to 0 (mod n), centred on 0 or n/2."""
    return Z.size in (0, Z.n) or not (2 * Z.start + Z.size - 1) % Z.n


def _trace_rows(tr: np.ndarray, Z: DefiningSet, f: FieldContext) -> np.ndarray:
    """GF(q^2) rows spanning the root rows (beta^{zj})_j, z in Z = -Z,
    from the trace table tr of beta."""
    if not _closed(Z):
        raise ValueError("defining set is not closed under z -> -z, so the "
                         "code is not defined over GF(q^2)")
    n, zs = Z.n, Z.elements
    j = np.arange(n, dtype=np.int64)
    pairs = np.array(sorted(z for z in zs if 0 < 2 * z < n), dtype=np.int64)
    shifts = np.stack([j, j + 1])                         # (2, n)
    rows = [tr[(pairs[:, None, None] * shifts) % n].reshape(-1, n)]
    if 0 in zs:
        rows.insert(0, np.ones((1, n), dtype=np.int64))
    if n % 2 == 0 and n // 2 in zs:
        rows.append(np.where(j % 2, f.neg(1), 1)[None, :])
    return np.concatenate(rows)


def _traced(q: int, Z: DefiningSet) -> bool:
    """True iff constacyclic_code(q, Z) takes trace rows: the roots of Z
    lie outside GF(q^2), since rn does not divide q^2-1."""
    return (q * q - 1) % Z.modulus != 0


def parity_rows(q: int, Z: DefiningSet, part: DefiningSet) -> slice:
    """The rows of constacyclic_code(q, Z).H that hold the code of part, a
    run inside the run Z, as a slice found by offset arithmetic.  Power
    rows: part's first row is the offset of its start from Z's.  Trace
    rows: part must be closed under z -> -z, so it is centred on 0 or on
    n/2, and its rows follow those of the z nearer 0 than all of its own.
    With f the least |z| of a set (f = start, or 0 when it holds 0), the
    trace layout has 2f - 1 rows of smaller |z| (none for f = 0)."""
    first, size, n = Z.offset(part), len(part), Z.n
    if not size:
        return slice(0, 0)
    if _traced(q, Z):
        if not _closed(part):
            raise ValueError("trace rows need exponents closed under z -> -z")
        lead = [0 if s.start + s.size > n or not s.start else 2 * s.start - 1
                for s in (part, Z)]
        first = lead[0] - lead[1]
    if first + size > len(Z):
        raise ValueError("the rows of the part are not contiguous in H")
    return slice(first, first + size)


def _vandermonde(B: np.ndarray, f: FieldContext) -> bool:
    """True iff the square block B is (x_i^j) in distinct nonzero points
    x_i, checked entry by entry in logs: no entry is zero, log B[:, j] =
    j log B[:, 1] (mod Q-1) for every j, column 0 of ones included, and
    the points B[:, 1] are pairwise distinct.  Then det B =
    prod_{i<k} (x_k - x_i) is nonzero."""
    rows = B.shape[0]
    if B.shape[1] != rows or not B.all():
        return False
    if rows < 2:
        return True
    L = f.log[B]
    if ((L - np.arange(rows) * L[:, 1:2]) % (f.order - 1)).any():
        return False
    # a set of |Z| ints: np.unique's first call imports lazily, and
    # np.sort touches numpy's sort code, some 0.4 MB of resident pages
    return len(set(B[:, 1].tolist())) == rows


def _lucas_vandermonde(B: np.ndarray, f: FieldContext) -> bool:
    """True if the square block B is proved nonsingular as trace rows
    T V: an optional all-ones row, then row pairs (a, b), then, if the
    rows left are odd, the row ((-1)^j).  Each pair needs a_0 = 2, b_j =
    a_{j+1}, and a_0, ..., a_{r-1}, b_{r-1} to obey a_{j+1} = s a_j -
    a_{j-1} with s = a_1.  Then a_j = x^j + x^-j for a root x of X^2 - s
    X + 1, and (a, b) is [[1, 1], [x, 1/x]] times the rows (x^j), (x^-j).
    The points 1, x_i^+-1 and -1 are pairwise distinct iff the s_i are,
    no s_i is +-2 (x_i = x_i^-1 = +-1) and p is odd when both 1 and -1
    occur; then det T = prod (1/x_i - x_i) and the Vandermonde det V are
    nonzero.  Only GF(q^2) entries are read: x may lie in GF(q^4)."""
    ones = bool((B[0] == 1).all())
    P = B[int(ones):]
    if len(P) % 2:
        alternating = np.where(np.arange(len(B)) % 2, f.neg(1), 1)
        if (P[-1] != alternating).any() or (ones and f.p == 2):
            return False
        P = P[:-1]
    if not len(P):
        return True
    a, b = P[0::2], P[1::2]
    two = f.add(1, 1)
    s = a[:, 1]
    # fewer s left once +-2 is removed: a repeat, or x = 1/x = +-1
    if (a[:, 0] != two).any() or (b[:, :-1] != a[:, 1:]).any() or len(
            set(s.tolist()) - {two, f.neg(two)}) < len(s):
        return False
    seq = np.concatenate([a, b[:, -1:]], axis=1)
    s_v = f.exp[f.log[s][:, None] + f.log[seq[:, 1:-1]]]
    return bool((f.add(seq[:, 2:], seq[:, :-2]) == s_v).all())


def constacyclic_code(q: int, Z: DefiningSet,
                      point0: bool = False) -> ClassicalCode:
    """Code of length n = Z.n over GF(q^2) with roots {eta^z : z in Z};
    k = n - |Z|, d from the BCH bound.  The roots need gcd(n, q) = 1 and
    rn | q^2-1 (power rows), or r = 1 and n | q^2+1 (trace rows).  The
    leading |Z| x |Z| block of H must pass the rank proof of its row
    kind, _vandermonde or _lucas_vandermonde; else the build raises
    VerificationError.  With point0, power rows get the point 0 ahead of
    the points eta^j: its column 0^z (0^0 = 1) comes first and n = Z.n +
    1.  For Z = 0..r-1 modulo q^2-1 that is the extended Reed-Solomon
    code [q^2, q^2-r, r+1] of family ii."""
    p, e = factor_prime_power(q)
    n, rn = Z.n, Z.modulus
    if math.gcd(n, q) != 1:
        raise ValueError(f"gcd(n={n}, q={q}) != 1")
    traces = _traced(q, Z)
    if traces and (Z.r != 1 or (q * q + 1) % n or point0):
        raise ValueError(f"rn={rn} divides neither q^2-1 nor (r=1 case, "
                         f"no point 0) q^2+1 for q={q}")
    field = build_field(p, 2 * e)
    if traces:
        H = _trace_rows(_trace_table(field, n), Z, field)
    else:
        z = np.array(Z.in_run_order(), dtype=np.int64)[:, None]
        H = _power_table(field, rn)[z * np.arange(n) % rn]
    rows = len(Z)
    proof = _lucas_vandermonde if traces else _vandermonde
    if rows and not proof(H[:, :rows], field):
        raise VerificationError(
            f"leading {rows} x {rows} block of H fails its rank proof")
    if point0:
        H = np.hstack([(z == 0).astype(np.int64), H])
    return _constacyclic(q, Z, H, field)


def _constacyclic(q: int, Z: DefiningSet, H: np.ndarray,
                  field: FieldContext) -> ClassicalCode:
    """The code whose parity check H has the rows of the run Z: k = n -
    |Z|, and d = |Z| + 1 by the BCH bound, as Z is one run."""
    n = H.shape[1]
    return ClassicalCode(n=n, k=n - len(Z), d_design=len(Z) + 1, H=H, q=q,
                         field=field, run=Z)


def subcode(top: ClassicalCode,
            part: DefiningSet) -> tuple[ClassicalCode, slice]:
    """The code nested in `top` whose parity check is a block of
    consecutive rows of top.H, a read-only view, and the slice of those
    rows: for a run inside top.run, the code constacyclic_code(top.q,
    part) builds, with the point 0 when top has it.  No rank proof of its
    own: a subset of independent rows is independent."""
    Z = top.run
    if Z is None or (part.modulus, part.r) != (Z.modulus, Z.r):
        raise ValueError(f"{top!r} holds no code of {part}")
    rows = parity_rows(top.q, Z, part)
    return _constacyclic(top.q, part, top.H[rows], top.field), rows


def generator_matrix(code: ClassicalCode) -> np.ndarray:
    """k x n basis of the nullspace {v : H v^T = 0}: from the RREF of H,
    row b is 1 at the free column free[b] and -R[i, free[b]] at pivot
    column i."""
    R, pivots = kernels.eliminate(code.H, code.field)
    free = np.delete(np.arange(code.n), pivots)
    if len(free) != code.k:
        raise RuntimeError("nullspace dimension does not match k")
    G = np.zeros((len(free), code.n), dtype=np.int64)
    G[np.arange(len(free)), free] = 1
    G[:, pivots] = code.field.neg(R[:len(pivots), free].T)
    return G
