"""Ebit counts and entanglement-assisted code parameters.

A classical [n, k_cl, d]_{q^2} code with parity check H yields an
[[n, 2 k_cl - n + c, d; c]]_q EAQECC where c = rank(H H^dagger); the
EA-Singleton bound n + c - k >= 2(d - 1) must hold with equality for
the MDS families.  Family enumerators construct every code and verify
the closed-form parameters instead of printing them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Matrix, hermitian_adjoint, mat_mul, matrix_rank
from .codes import (
    ClassicalCode,
    constacyclic_code,
    constacyclic_context,
    extended_rs_code,
)
from .cosets import defining_set
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
    deltas: tuple[int, ...] = ()
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


def ebit_count(H: Matrix, q: int) -> int:
    """c = rank(H H^dagger), the number of maximally entangled states."""
    if H.nrows == 0:
        return 0
    return matrix_rank(mat_mul(H, hermitian_adjoint(H, q)))


def ebit_count_symplectic(HX: Matrix, HZ: Matrix, q: int) -> int:
    """c = rank(HX HZ^T - HZ HX^T) / 2 over GF(q)."""
    if HX.ctx is not HZ.ctx or HX.shape != HZ.shape:
        raise ValueError("HX and HZ must be same-shape matrices over GF(q)")
    if HX.ctx.order != q:
        raise ValueError(f"matrices must live over GF({q})")
    ctx = HX.ctx
    prod = mat_mul(HX, Matrix(ctx, HZ.data.T))
    prod2 = mat_mul(HZ, Matrix(ctx, HX.data.T))
    anti = Matrix(ctx, [[ctx.sub(int(prod.data[i, j]), int(prod2.data[i, j]))
                         for j in range(prod.ncols)]
                        for i in range(prod.nrows)])
    r = matrix_rank(anti)
    if r % 2:
        raise ValueError(f"antisymmetrized product has odd rank {r}")
    return r // 2


def ea_singleton_check(params: EaqeccParams) -> bool:
    """True iff n + c - k = 2(d - 1); a strict violation of the bound
    means the construction is broken and raises."""
    slack = params.n + params.c - params.k - 2 * (params.d - 1)
    if slack < 0:
        raise ValueError(f"EA-Singleton bound violated by {params.label()}")
    if not 0 <= params.c <= params.n - 1:
        raise ValueError(f"ebit count c={params.c} outside [0, n-1]")
    return slack == 0


def derive_eaqecc(code: ClassicalCode, q: int) -> EaqeccParams:
    """[[n, 2k - n + c, d; c]]_q from a classical code over GF(q^2)."""
    c = ebit_count(code.H, q)
    k = 2 * code.k - code.n + c
    if k < 0:
        raise ValueError(
            f"derived dimension {k} < 0 for classical [{code.n},{code.k}]")
    params = EaqeccParams(
        q=q, n=code.n, k=k, d=code.d_design, c=c,
        saturates_ea_singleton=False, family=code.family,
        classical=(code.n, code.k, code.d_design),
        defining_set=tuple(code.defining_set.sorted())
        if code.defining_set is not None else None,
        field=code.field.descriptor(),
    )
    saturated = ea_singleton_check(params)
    return EaqeccParams(**{**params.__dict__,
                           "saturates_ea_singleton": saturated})


@dataclass(frozen=True)
class FamilySpec:
    """Admissible parameter ranges of one EAQMDS family."""

    family: str
    c_formula: str
    needs_t: bool = False

    def admissible_q(self, q: int, t: int | None = None) -> bool:
        try:
            factor_prime_power(q)
        except ValueError:
            return False
        if self.family in ("iv", "v") and q % 2 == 0:
            return False
        if self.family == "v":
            if t is None or t < 3 or t % 2 == 0 or (q + 1) % t:
                return False
            if q + 1 < 2 * t:   # empty delta range otherwise
                return False
        return True

    def length(self, q: int, t: int | None = None, n: int | None = None) -> int:
        if self.family == "i":
            return q * q + 1 if n is None else n
        if self.family == "ii":
            return q * q
        if self.family == "iii":
            return q * q - 1 if n is None else n
        if self.family == "iv":
            return (q * q - 1) // 2
        return (q * q - 1) // t

    def d_values(self, q: int, t: int | None = None,
                 n: int | None = None) -> list[int]:
        """Admissible minimum distances, ascending."""
        if self.family == "i":
            n = self.length(q, n=n)
            return list(range(2, 2 * (n // (q + 1)) + 3, 2))
        if self.family == "ii":
            return list(range(q + 1, 2 * q))
        if self.family == "iii":
            n = self.length(q, n=n)
            dmax = n // (q + 1) - 1
            if dmax < 0:
                return []
            return list(range(2, 2 * dmax + 3))
        if self.family == "iv":
            return list(range((q + 1) // 2 + 2, (3 * q - 1) // 2 + 1))
        lo = (t - 1) * (q + 1) // t + 2
        hi = (t + 1) * (q + 1) // t - 2
        return list(range(lo, hi + 1))

    def expected_c(self, t: int | None = None) -> int:
        return {"i": 1, "ii": 1, "iii": 1, "iv": 2}.get(self.family, t)

    def closed_form_k(self, q: int, d: int, t: int | None = None,
                      n: int | None = None) -> int:
        n = self.length(q, t, n)
        if self.family in ("i", "iii"):
            return n - 2 * d + 3
        if self.family == "ii":
            return n - 2 * d + 3
        if self.family == "iv":
            return n - 2 * d + 4
        return n - 2 * d + t + 2


FAMILIES: dict[str, FamilySpec] = {
    "i": FamilySpec("i", "1"),
    "ii": FamilySpec("ii", "1"),
    "iii": FamilySpec("iii", "1"),
    "iv": FamilySpec("iv", "2"),
    "v": FamilySpec("v", "t", needs_t=True),
}


def canonical_deltas(family: str, q: int, d: int, t: int | None = None,
                     n: int | None = None) -> dict:
    """Defining-set parameters realizing minimum distance d."""
    if family == "i":
        if d % 2:
            raise ValueError("family i constructs even d only")
        return {"delta": (d - 2) // 2}
    if family == "iii":
        if d % 2:
            return {"delta": (d - 1) // 2, "odd": True}
        return {"delta": (d - 2) // 2}
    if family == "iv":
        delta2 = min(q - 1, d - 2)
        return {"delta1": d - 2 - delta2, "delta2": delta2}
    if family == "v":
        lo = (t - 1) * (q + 1) // (2 * t)
        hi = (t + 1) * (q + 1) // (2 * t) - 2
        delta2 = min(hi, d - 2 - lo)
        return {"delta1": d - 2 - delta2, "delta2": delta2}
    raise ValueError(f"no defining-set parameters for family {family!r}")


def build_classical(family: str, q: int, d: int, t: int | None = None,
                    n: int | None = None,
                    field: FieldContext | None = None) -> ClassicalCode:
    """Classical code behind one family instance at distance d."""
    spec = FAMILIES[family]
    if not spec.admissible_q(q, t):
        raise ValueError(f"q={q} (t={t}) not admissible for family {family}")
    if d not in spec.d_values(q, t, n):
        raise ValueError(f"d={d} not admissible for family {family}, q={q}")
    if family == "ii":
        code = extended_rs_code(q, d - 1, field=field)
        code.family = "ii"
        return code
    params = canonical_deltas(family, q, d, t, n)
    Z = defining_set(family, q, n=n, t=t, **params)
    r = {"i": 1, "iii": 1, "iv": 2}.get(family, t)
    ctx = constacyclic_context(q, Z.n, r, field=field)
    return constacyclic_code(ctx, Z, family=family)


def enumerate_family(family: str, q: int, t: int | None = None,
                     n: int | None = None,
                     field: FieldContext | None = None) -> list[EaqeccParams]:
    """All EAQMDS codes of one family for a given q (and t), each built
    from its classical code and checked against the closed form."""
    spec = FAMILIES[family]
    if not spec.admissible_q(q, t):
        raise ValueError(f"q={q} (t={t}) not admissible for family {family}")
    out = []
    for d in spec.d_values(q, t, n):
        code = build_classical(family, q, d, t, n, field=field)
        params = derive_eaqecc(code, q)
        expected = (spec.length(q, t, n), spec.closed_form_k(q, d, t, n),
                    d, spec.expected_c(t))
        got = (params.n, params.k, params.d, params.c)
        if got != expected:
            raise AssertionError(
                f"family {family} q={q} d={d}: constructed {got} != "
                f"closed form {expected}")
        if not params.saturates_ea_singleton:
            raise AssertionError(
                f"family {family} {params.label()} does not saturate "
                "the EA-Singleton bound")
        out.append(EaqeccParams(**{**params.__dict__, "t": t,
                                   "deltas": _delta_tuple(family, q, d, t, n)}))
    return out


def _delta_tuple(family: str, q: int, d: int, t: int | None,
                 n: int | None) -> tuple[int, ...]:
    if family == "ii":
        return (d - 1,)
    params = canonical_deltas(family, q, d, t, n)
    if "delta" in params:
        return (params["delta"],)
    return (params["delta1"], params["delta2"])
