"""Independent oracles and lemma-sweep regression harness.

The oracles take a plain int64 matrix and its field context and call the
kernels directly.  The distance oracles are deliberately separate routes
from the BCH design distance, both routed by certify_distance: full
message enumeration (kernels.min_weight) when the message space fits
the budget, otherwise the generalized-Cauchy certificate.  A
code is MDS iff every k x k minor of a generator matrix, equivalently
every (n-k)-square minor of a full-rank parity check, is nonsingular,
that is iff every square submatrix of A is, for [I | A] its systematic
form.  kernels.cauchy_certificate decides that in polynomial time when A
is a generalized Cauchy matrix, as it is for every generalized
Reed-Solomon code; every family code here is one.  Hermitian dual
containment has two routes here, the coset test Z & -qZ = 0 on an
exponent set and its modulus, which need not be one run, and the
matrix test H H^dagger = 0.  LEMMAS is the one table of rank lemmas:
each lemma's family and its default q and t grids.  The sweep harness
builds every instance of every group of the family that the family
table admits (cosets.groups), each group (one family, q, n and t,
family iii's two distance parities together) through one
eaqecc.family_codes build of the row's windows, and compares
rank(H H^dagger), which that build counts for the whole group in one
kernels.block_ranks pass, against the row's ebit count c.  Each
instance's H and Gram matrix are views of the group's.  Family v's
lemma is checked per group too: each split by window arithmetic, each
|Z1 & Z2^{-q}| from one list of matched pairs, and each cross rank
rank(H1 H2^dagger) in the group's one block_ranks pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .codes import ClassicalCode, generator_matrix
from .cosets import Group, groups
from .eaqecc import family_codes, gram_matrix
from .galois import FieldContext


# largest Q^k for message enumeration
MAX_CODEWORDS = 10**7


def is_hermitian_dual_containing(Z: frozenset[int], modulus: int,
                                 q: int) -> bool:
    """Coset criterion: the code with the exponent set Z modulo rn =
    `modulus`, one run or not, is Hermitian dual-containing iff Z and
    -qZ (mod rn) are disjoint.

    Equivalent to the matrix test H H^dagger = 0 whenever r | q+1
    (true for every family here); for other r the Hermitian dual
    leaves the lambda-constacyclic class and this shortcut does not
    apply."""
    return Z.isdisjoint({(-q * z) % modulus for z in Z})


def dual_containment_matrix_oracle(H: np.ndarray, q: int,
                                   ctx: FieldContext) -> bool:
    """True iff H H^dagger = 0 (matrix route to Hermitian dual containment)."""
    return not gram_matrix(H, q, ctx).any()


def certify_distance(code: ClassicalCode, *,
                     max_codewords: int = MAX_CODEWORDS) -> dict:
    """Route to the first oracle that decides the code, and report what
    was certified.

    The routes, in order: message enumeration (kernels.min_weight on a
    generator matrix) when Q^k fits max_codewords, the one route that
    finds d itself; the generalized-Cauchy certificate; else
    design-only, as is a code with k = 0 and no nonzero codeword.  Returns
    {"method", "is_mds", "d"} where method is "enumeration", "cauchy" or
    "design-only"; d is the exact distance when enumeration ran, n-k+1
    when the certificate confirmed MDS, else None.  A nonpositive
    max_codewords is a ValueError.
    """
    if max_codewords < 1:
        raise ValueError("the codeword budget must be positive")
    n, k = code.n, code.k
    if k == 0:
        return {"method": "design-only", "is_mds": None, "d": None}
    if code.field.order**k <= max_codewords:
        d = kernels.min_weight(generator_matrix(code), code.field)
        return {"method": "enumeration", "is_mds": d == n - k + 1, "d": d}
    # G, a second elimination, only for an H with dependent rows
    H = code.H
    M = H if H.shape[0] == n - k else generator_matrix(code)
    ok = kernels.cauchy_certificate(M, code.field)
    if ok is None:
        return {"method": "design-only", "is_mds": None, "d": None}
    return {"method": "cauchy", "is_mds": ok, "d": n - k + 1 if ok else None}


# ---------------------------------------------------------------------------
# lemma sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepReport:
    lemma: str
    entries: list[dict] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def failures(self) -> list[dict]:
        return [e for e in self.entries if not e["ok"]]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {"lemma": self.lemma, "instances": len(self.entries),
                "failures": len(self.failures), "entries": self.entries}

    def to_text(self) -> str:
        lines = [f"lemma {self.lemma}: {len(self.entries)} instances, "
                 f"{len(self.failures)} failures ({self.elapsed:.2f}s)"]
        return "\n".join(lines + [f"  FAIL {e}" for e in self.failures])


def _rank_entry(lemma, q, n, r, params, Z, computed, expected,
                **extra) -> dict:
    ok = computed == expected and all(
        v for k, v in extra.items() if k.endswith("_ok"))
    return {"lemma": lemma, "q": q, "n": n, "r": r, "params": params,
            "size_Z": len(Z) if Z is not None else None,
            "expected": expected, "computed": computed, "ok": ok, **extra}


# lemma -> (family, q grid, t grid): the acceptance-grade default grids
# that `verify` sweeps; a t grid for the family that takes t alone
LEMMAS: dict[str, tuple[str, tuple[int, ...], tuple[int, ...] | None]] = {
    "rank1": ("i", (2, 3, 4, 5, 7, 8, 9), None),
    "rank1-minus": ("iii", (2, 3, 4, 5, 7, 8, 9), None),
    "rank-ers": ("ii", (3, 4, 5, 7, 8), None),
    "nega": ("iv", (3, 5, 7, 9, 11, 13), None),
    "consta": ("v", (5, 9, 11, 13, 19), (3, 5, 7)),
}


def run_lemma_sweep(lemma: str, q_list: list[int] | None = None,
                    t_list: list[int] | None = None) -> SweepReport:
    """Rebuild every admissible instance of one rank lemma and compare
    rank(H H^dagger) with the predicted ebit count, over q_list and, for
    consta, t_list; None takes the lemma's grid in LEMMAS, and an empty
    t_list for consta is an error.  The lengths are those of the
    family's groups at each q (cosets.groups): every divisor n >= 2 of
    q^2+1 for rank1 and of q^2-1 for rank1-minus.

    Lemmas: rank1 (cyclic, n | q^2+1, c = 1); rank1-minus (cyclic,
    n | q^2-1, both distance parities, c = 1); rank-ers (extended RS,
    q <= r <= 2q-2, c = 1); nega (negacyclic, c = 2); consta
    (constacyclic order t, c = t, plus the |Z1 & Z2^{-q}| = (t-1)/2
    intersection count).
    """
    if lemma not in LEMMAS:
        raise ValueError(f"unknown lemma {lemma!r}")
    family, q_grid, t_grid = LEMMAS[lemma]
    q_list = q_grid if q_list is None else q_list
    t_list = t_grid if t_list is None else t_list
    if t_grid and not t_list:
        raise ValueError("consta sweep needs t values")
    start = time.perf_counter()
    report = SweepReport(lemma)
    for q in q_list:
        for t in t_list if t_grid else [None]:
            for row in groups(family, q, t):
                _sweep_group(report, row)
    report.elapsed = time.perf_counter() - start
    return report


def _sweep_group(report: SweepReport, row: Group) -> None:
    """One entry per parameter set of the row's grid, for family iii
    with even and then odd distance, all built by one family_codes call
    and each checked against the row's c.  Entry params list t first
    when the row has one, then the grid's parameters, odd included, and
    such a row's entries add _consta_checks and their cross ranks."""
    grid = row.grid()
    windows = [row.window(kw) for kw in grid]
    checks = _consta_checks(row, grid, windows) if row.t is not None else []
    built = family_codes(row, windows, [halves for halves, _ in checks])
    for i, (kw, (code, _, c, cross)) in enumerate(zip(grid, built)):
        Z, params, extra = code.defining_set, kw, {}
        if checks:
            params, extra = {"t": row.t, **kw}, checks[i][1]
            extra.update(cross_rank=cross,
                         cross_rank_ok=cross == (row.t - 1) // 2)
        report.entries.append(_rank_entry(
            report.lemma, row.q, row.n, Z.r if Z is not None else None,
            params, Z, c, row.c, **extra))


def _consta_checks(row: Group, grid: list[dict],
                   windows: list[tuple[int, int]]) -> list[tuple]:
    """For each window of a family-v row, the halves (Z1, Z2) of its
    defining set Z, the runs of Omega indices below and above e0, and the
    checks of its split and of |Z1 & Z2^{-q}| = s.  e0, the index of the
    anchor exponent s(q-1), s = (t-1)/2, and s(q-1) come from their closed
    forms, not from the row, so a row whose windows are off fails.  The
    split holds when index e0 holds s(q-1), |Z1| + 1 + |Z2| = |Z| <= n
    and Z starts where Z1 does; else the halves are None and no cross
    rank is taken.  The intersection counts the pairs (a, b), z(e0-a) =
    -q z(e0+b) (mod rn), with a <= delta1 and b <= delta2, matched once on
    the group's largest halves (shorter than the circle)."""
    q, t, n, s = row.q, row.t, row.n, (row.t - 1) // 2
    e0 = ((t - 1) * (q - 1) - 2) // (2 * t)
    anchored = row.run(e0, e0).in_run_order() == [s * (q - 1)]
    lower = row.run(e0 - max(kw["delta1"] for kw in grid), e0 - 1)
    index = {z: a for a, z in enumerate(reversed(lower.in_run_order()), 1)}
    upper = row.run(e0 + 1, e0 + max(kw["delta2"] for kw in grid))
    pairs = [(index[x], b) for b, z in enumerate(upper.in_run_order(), 1)
             if (x := -q * z % lower.modulus) in index]
    out = []
    for kw, (lo, hi) in zip(grid, windows):
        d1, d2 = kw["delta1"], kw["delta2"]
        split = anchored and hi - lo == d1 + d2 < n \
            and (lo - e0 + d1) % n == 0
        inter = sum(a <= d1 and b <= d2 for a, b in pairs)
        out.append(((row.run(e0 - d1, e0 - 1), row.run(e0 + 1, e0 + d2))
                    if split else None,
                    {"split_ok": split, "intersection": inter,
                     "intersection_ok": inter == s}))
    return out
