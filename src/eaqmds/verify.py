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
containment has two routes here, the coset test Z & -qZ = 0 and the
matrix test H H^dagger = 0.  LEMMAS is the one table of rank lemmas:
each lemma's family, its lengths and its default q and t grids.  The
sweep harness builds every family instance that
cosets.parameter_ranges admits, each group of them (one family, q, n
and t, family iii's two distance parities together) through one
eaqecc.family_codes build, and compares rank(H H^dagger), which that
build counts for the whole group in one kernels.block_ranks pass,
against the predicted ebit count.  Each instance's H and Gram matrix are
views of the group's; the family-v cross rank rank(H1 H2^dagger) is that
of a block of the entry's own Gram matrix, sliced on the rows of Z1 and
Z2.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .codes import ClassicalCode, generator_matrix, parity_rows
from .cosets import DefiningSet, omega_run, parameter_ranges
from .eaqecc import expected_c, family_codes, gram_matrix
from .galois import FieldContext


# largest Q^k for message enumeration
MAX_CODEWORDS = 10**7


def is_hermitian_dual_containing(Z: DefiningSet, q: int) -> bool:
    """Coset criterion: the code is Hermitian dual-containing iff
    Z and -qZ (mod rn) are disjoint.

    Equivalent to the matrix test H H^dagger = 0 whenever r | q+1
    (true for every family here); for other r the Hermitian dual
    leaves the lambda-constacyclic class and this shortcut does not
    apply."""
    return not Z.elements & {(-q * z) % Z.modulus for z in Z.elements}


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
        for e in self.failures:
            lines.append(f"  FAIL {e}")
        return "\n".join(lines)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _rank_entry(lemma, q, n, r, params, Z, computed, expected,
                **extra) -> dict:
    ok = computed == expected and all(
        v for k, v in extra.items() if k.endswith("_ok"))
    entry = {"lemma": lemma, "q": q, "n": n, "r": r, "params": params,
             "size_Z": len(Z) if Z is not None else None,
             "expected": expected, "computed": computed, "ok": ok}
    entry.update(extra)
    return entry


# lemma -> (family, sign, q grid, t grid): for families i and iii the
# sign s of the lengths they sweep, every divisor n of q^2+s; the grids
# are the acceptance-grade defaults that `verify` sweeps
LEMMAS: dict[str, tuple[str, int | None, tuple[int, ...],
                        tuple[int, ...] | None]] = {
    "rank1": ("i", 1, (2, 3, 4, 5, 7, 8, 9), None),
    "rank1-minus": ("iii", -1, (2, 3, 4, 5, 7, 8, 9), None),
    "rank-ers": ("ii", None, (3, 4, 5, 7, 8), None),
    "nega": ("iv", None, (3, 5, 7, 9, 11, 13), None),
    "consta": ("v", None, (5, 9, 11, 13, 19), (3, 5, 7)),
}


def run_lemma_sweep(lemma: str, q_list: list[int] | None = None,
                    t_list: list[int] | None = None) -> SweepReport:
    """Rebuild every admissible instance of one rank lemma and compare
    rank(H H^dagger) with the predicted ebit count, over q_list and, for
    consta, t_list; None takes the lemma's grid in LEMMAS, and an empty
    t_list for consta is an error.

    Lemmas: rank1 (cyclic, n | q^2+1, c = 1); rank1-minus (cyclic,
    n | q^2-1, both distance parities, c = 1); rank-ers (extended RS,
    q <= r <= 2q-2, c = 1); nega (negacyclic, c = 2); consta
    (constacyclic order t, c = t, plus the |Z1 & Z2^{-q}| = (t-1)/2
    intersection count).
    """
    if lemma not in LEMMAS:
        raise ValueError(f"unknown lemma {lemma!r}")
    family, sign, q_grid, t_grid = LEMMAS[lemma]
    q_list = q_grid if q_list is None else q_list
    t_list = t_grid if t_list is None else t_list
    if family == "v" and not t_list:
        raise ValueError("consta sweep needs t values")
    start = time.perf_counter()
    report = SweepReport(lemma)
    for q in q_list:
        for t in t_list if family == "v" else [None]:
            for n in divisors(q * q + sign) if sign else [None]:
                _sweep_family(report, family, q, n=n, t=t)
    report.elapsed = time.perf_counter() - start
    return report


def _sweep_family(report: SweepReport, family: str, q: int,
                  n: int | None = None, t: int | None = None) -> None:
    """One entry per admissible choice of the construction parameters of
    one family instance, for family iii with even and then odd distance,
    all built by one family_codes call and each checked against the
    family's expected_c; none when parameter_ranges rejects (q, n, t) or
    admits no choice.  Entry params list t first when given, then the
    family's parameters, then odd for family iii."""
    try:
        length = parameter_ranges(family, q, n, t)[0]
    except ValueError:
        return
    expected = expected_c(family, t)
    grid = []
    for odd in (False, True) if family == "iii" else (False,):
        ranges = parameter_ranges(family, q, n, t, odd)[1]
        grid += [(odd, dict(zip(ranges, values)))
                 for values in itertools.product(*ranges.values())]
    built = family_codes(family, q, [dict(kw, odd=odd) for odd, kw in grid],
                         t, n)
    for (odd, kw), (code, gram, c) in zip(grid, built):
        Z = code.defining_set
        params = dict(kw) if t is None else {"t": t, **kw}
        if family == "iii":
            params["odd"] = odd
        extra = {}
        if family == "v":
            extra = _consta_intersection(q, t, kw["delta1"], kw["delta2"],
                                         code, gram)
        report.entries.append(_rank_entry(
            report.lemma, q, length, Z.r if Z is not None else None, params,
            Z, c, expected, **extra))


def _consta_intersection(q, t, d1, d2, code: ClassicalCode,
                         gram: np.ndarray) -> dict:
    """Check that the split of the code's defining set Z around its anchor
    exponent (t-1)(q-1)/2 rebuilds Z, |Z1 & Z2^{-q}| = (t-1)/2 and
    rank(H1 H2^dagger) = (t-1)/2.  Z1 and Z2 are the runs of Omega indices
    below and above the anchor's, e0.  Row z of the code's H depends only
    on z, so H1 and H2 are its rows of Z1 and Z2, two blocks of
    consecutive rows (codes.parity_rows), and H1 H2^dagger is the block
    of its Gram matrix `gram` = H H^dagger sliced on them.  When the split
    does not rebuild Z, there is no cross rank to take."""
    Z, ctx = code.defining_set, code.field
    s = (t - 1) // 2
    anchor = s * (q - 1)
    modulus = Z.modulus
    e0 = ((t - 1) * (q - 1) - 2) // (2 * t)
    z1 = omega_run(Z.n, t, e0 - d1, e0 - 1)
    z2 = omega_run(Z.n, t, e0 + 1, e0 + d2)
    split_ok = z1.elements | z2.elements | {anchor} == Z.elements
    inter = z1.elements & frozenset((-q * z) % modulus for z in z2.elements)
    cross_rank = None
    if split_ok:
        cross = gram[parity_rows(q, Z, z1), parity_rows(q, Z, z2)]
        cross_rank = kernels.rank(cross, ctx)
    return {
        "split_ok": split_ok,
        "intersection": len(inter),
        "intersection_ok": len(inter) == s,
        "cross_rank": cross_rank,
        "cross_rank_ok": cross_rank == s,
    }
