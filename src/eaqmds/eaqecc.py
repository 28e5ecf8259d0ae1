"""Ebit counts and entanglement-assisted code parameters.

A classical [n, k_cl, d]_{q^2} code with parity check H yields an
[[n, 2 k_cl - n + c, d; c]]_q EAQECC where c = rank(H H^dagger); the
EA-Singleton bound n + c - k >= 2(d - 1) must hold with equality for
the MDS families.  gram_matrix forms H H^dagger by kernels.matmul and
kernels.adjoint on H and the code's field.  Family enumerators construct
every code and verify the closed-form parameters instead of printing
them.  FAMILIES names the five families; their lengths and admissible q
follow from cosets.parameter_ranges, family_t says which family takes
t, and instances is the one map from an admissible distance to the
parameters that build it.  build_classical turns one family instance,
given by its distance or by explicit parameters, into a code;
family_codes turns all instances of one family group (family, q, t, n)
into views of one code's rows, each with a principal block of that
code's one Gram matrix and its ebit count c, the rank of that block:
kernels.block_ranks counts every instance's c in one pass over the Gram
matrix's support.  VerificationError, which codes defines, is re-exported here.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import kernels
from .codes import (
    ClassicalCode,
    VerificationError,
    constacyclic_code,
    extended_rs_code,
    subcode,
)
from .cosets import (
    DefiningSet,
    check_parameters,
    defining_set,
    parameter_ranges,
)
from .galois import FieldContext, factor_prime_power


@dataclass(frozen=True)
class EaqeccParams:
    """[[n, k, d; c]]_q plus EA-Singleton saturation status."""

    q: int
    n: int
    k: int
    d: int
    c: int
    saturates_ea_singleton: bool
    family: str | None = None
    t: int | None = None
    classical: tuple[int, int, int] | None = None   # (n, k_cl, d_design)
    defining_set: tuple[int, ...] | None = None
    field: dict | None = None

    def label(self) -> str:
        return f"[[{self.n},{self.k},{self.d};{self.c}]]_{self.q}"

    def to_record(self) -> dict:
        rec = {
            "family": self.family,
            "q": self.q,
            "t": self.t,
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "c": self.c,
        }
        if self.classical is not None:
            rec["classical"] = {"n": self.classical[0], "k": self.classical[1],
                                "d": self.classical[2]}
        rec["saturated"] = self.saturates_ea_singleton
        if self.defining_set is not None:
            rec["defining_set"] = list(self.defining_set)
        if self.field is not None:
            rec["field"] = self.field
        return rec


def gram_matrix(H: np.ndarray, q: int, ctx: FieldContext) -> np.ndarray:
    """H H^dagger, exact over GF(q^2)."""
    return kernels.matmul(H, kernels.adjoint(H, q, ctx), ctx)


def ea_singleton_check(q: int, n: int, k: int, d: int, c: int) -> bool:
    """True iff [[n, k, d; c]]_q has n + c - k = 2(d - 1); a strict
    violation of the bound means the construction is broken and raises."""
    slack = n + c - k - 2 * (d - 1)
    if slack < 0:
        raise VerificationError(
            f"EA-Singleton bound violated by [[{n},{k},{d};{c}]]_{q}")
    if not 0 <= c <= n - 1:
        raise VerificationError(f"ebit count c={c} outside [0, n-1]")
    return slack == 0


def derive_eaqecc(code: ClassicalCode, c: int,
                  t: int | None = None) -> EaqeccParams:
    """[[n, 2k - n + c, d; c]]_q from a classical code over GF(q^2) and
    its ebit count c = rank(H H^dagger), with t recorded as given."""
    k = 2 * code.k - code.n + c
    if k < 0:
        raise ValueError(
            f"derived dimension {k} < 0 for classical [{code.n},{code.k}]")
    return EaqeccParams(
        q=code.q, n=code.n, k=k, d=code.d_design, c=c,
        saturates_ea_singleton=ea_singleton_check(
            code.q, code.n, k, code.d_design, c),
        family=code.family, t=t,
        classical=(code.n, code.k, code.d_design),
        defining_set=tuple(code.defining_set.sorted())
        if code.defining_set is not None else None,
        field=code.field.descriptor(),
    )


FAMILIES = ("i", "ii", "iii", "iv", "v")


def family_t(family: str, t: int | None) -> int | None:
    """t for family v, the only family whose construction takes it;
    None for the others."""
    return t if family == "v" else None


def admissible(family: str, q: int, t: int | None = None,
               n: int | None = None) -> bool:
    """True iff q is a prime power and parameter_ranges admits (q, n, t)."""
    try:
        factor_prime_power(q)
        parameter_ranges(family, q, n, t)
    except ValueError:
        return False
    return True


def instances(family: str, q: int, t: int | None = None,
              n: int | None = None) -> dict[int, dict]:
    """Each admissible minimum distance, ascending, mapped to the
    parameters that build it: r = d - 1 parity rows (family ii),
    d = 2 delta + 2 (family i, and family iii at even d),
    d = 2 delta + 1 with odd=True (family iii at odd d), and
    d = delta1 + delta2 + 2 with delta2 as large as its range allows
    (families iv and v)."""
    ranges = parameter_ranges(family, q, n, t)[1]
    if family == "ii":
        out = {r + 1: {"r": r} for r in ranges["r"]}
    elif family in ("i", "iii"):
        out = {2 * delta + 2: {"delta": delta} for delta in ranges["delta"]}
        if family == "iii":
            odd = parameter_ranges("iii", q, n, t, odd=True)[1]
            out.update({2 * delta + 1: {"delta": delta, "odd": True}
                        for delta in odd["delta"]})
    else:
        # delta2 ascends in the outer loop, so the last pair written
        # for a distance has the largest delta2
        out = {d1 + d2 + 2: {"delta1": d1, "delta2": d2}
               for d2 in ranges["delta2"] for d1 in ranges["delta1"]}
    return dict(sorted(out.items()))


def expected_c(family: str, t: int | None = None) -> int:
    """The ebit count rank(H H^dagger) of every code of the family."""
    return {"i": 1, "ii": 1, "iii": 1, "iv": 2}.get(family, t)


def closed_form_k(family: str, q: int, d: int, t: int | None = None,
                  n: int | None = None) -> int:
    """k = n + c + 2 - 2d, the EA-Singleton bound n + c - k = 2(d - 1)
    met with equality."""
    length = parameter_ranges(family, q, n, t)[0]
    return length + expected_c(family, t) + 2 - 2 * d


def build_classical(family: str, q: int, d: int | None, t: int | None = None,
                    n: int | None = None, **params) -> ClassicalCode:
    """Classical code behind one family instance: at distance d, or from
    explicit parameters (r for family ii; delta, or delta1 and delta2, and
    odd for the constacyclic families) when d is None."""
    if params and d is not None:
        raise ValueError(f"d={d} and explicit parameters "
                         f"{', '.join(params)} exclude each other")
    if not params:
        if not admissible(family, q, t):
            raise ValueError(
                f"q={q} (t={t}) not admissible for family {family}")
        params = instances(family, q, t, n).get(d)
        if params is None:
            raise ValueError(f"d={d} not admissible for family {family}, q={q}")
    if family == "ii" and "r" in params:
        check_parameters("ii", q, n, t, **params)
        code = extended_rs_code(q, params["r"])
    else:
        # family ii without r has no defining set, and defining_set says so
        code = constacyclic_code(
            q, defining_set(family, q, n=n, t=t, **params))
    code.family = family
    return code


def family_codes(family: str, q: int, params: list[dict],
                 t: int | None = None, n: int | None = None
                 ) -> Iterator[tuple[ClassicalCode, np.ndarray, int]]:
    """Each instance of one family group (family, q, t, n), one for each
    parameter set in `params` as build_classical takes them, as its code,
    its Gram matrix H H^dagger and its ebit count c = rank(H H^dagger);
    nothing for no parameter sets.  One code holds them all: the extended
    RS code with the largest r (family ii), or the constacyclic code of
    the union of the defining sets, one run whose rank proof covers every
    subset of its rows.  Its Gram matrix is formed once.  Each instance's
    rows are a contiguous block of that code's (codes.subcode), so its H
    is a view of the group's H and its Gram matrix a view of the
    principal block on those rows: no instance copies either.  One
    kernels.block_ranks call on the group's Gram matrix counts every
    instance's c."""
    if not params:
        return
    if family == "ii":
        for kw in params:
            check_parameters("ii", q, n, t, **kw)
        parts = [kw["r"] for kw in params]
        top = extended_rs_code(q, max(parts))
    else:
        parts = [defining_set(family, q, n=n, t=t, **kw) for kw in params]
        union = frozenset().union(*(Z.elements for Z in parts))
        top = constacyclic_code(
            q, DefiningSet(parts[0].modulus, parts[0].r, union))
    gram = gram_matrix(top.H, q, top.field)
    subs = [subcode(top, part) for part in parts]
    counts = kernels.block_ranks(gram, [(rows, rows) for _, rows in subs],
                                 top.field)
    for (code, rows), c in zip(subs, counts):
        code.family = family
        yield code, gram[rows, rows], c


def enumerate_family(family: str, q: int, t: int | None = None,
                     n: int | None = None,
                     d: int | None = None) -> list[EaqeccParams]:
    """All EAQMDS codes of one family for a given q (and t), or with d
    just the one at distance d, built by family_codes and each checked
    against the closed form; only the codes asked for are built.  A
    distance whose closed form gives k = 0 encodes no qudit and is left
    out."""
    if not admissible(family, q, t):
        raise ValueError(f"q={q} (t={t}) not admissible for family {family}")
    length = parameter_ranges(family, q, n, t)[0]
    c = expected_c(family, t)
    wanted = [(dist, kw) for dist, kw in instances(family, q, t, n).items()
              if (d is None or dist == d)
              and closed_form_k(family, q, dist, t, n) >= 1]
    out = []
    built = family_codes(family, q, [kw for _, kw in wanted], t, n)
    for (dist, _), (code, _, ebits) in zip(wanted, built):
        k = closed_form_k(family, q, dist, t, n)
        params = derive_eaqecc(code, ebits, t)
        expected = (length, k, dist, c)
        got = (params.n, params.k, params.d, params.c)
        if got != expected:
            raise VerificationError(
                f"family {family} q={q} d={dist}: constructed {got} != "
                f"closed form {expected}")
        out.append(params)
    return out
