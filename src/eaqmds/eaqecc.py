"""Ebit counts and entanglement-assisted code parameters.

A classical [n, k_cl, d]_{q^2} code with parity check H yields an
[[n, 2 k_cl - n + c, d; c]]_q EAQECC where c = rank(H H^dagger); the
EA-Singleton bound n + c - k >= 2(d - 1) must hold with equality for
the MDS families.  gram_matrix forms H H^dagger by kernels.matmul and
kernels.adjoint on H and the code's field.  Family enumerators construct
every code and verify the closed-form parameters instead of printing
them.  Every fact of a family at (q, t, n) comes from its row of the
family table, cosets.group: the length, c, the closed form k and the
window of Omega indices of each admissible distance.  build_classical
turns one family instance, given by its distance or by explicit
parameters, into a code; family_codes turns the windows of one family
group into views of the rows of one code, that of the least run holding
their defining sets (cosets.hull), each with a principal block of that
code's one Gram matrix and its ebit count c, the rank of that block, and,
when asked, a cross rank, that of the block on the rows of two runs inside
its defining set: kernels.block_ranks counts every instance's c and cross
rank in one pass over the Gram matrix's support.  VerificationError, which
codes defines, is re-exported here.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import kernels
from .codes import (ClassicalCode, VerificationError, constacyclic_code,
                    parity_rows, subcode)
from .cosets import DefiningSet, Group, group, hull
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


def admissible(family: str, q: int, t: int | None = None,
               n: int | None = None) -> Group | None:
    """group(family, q, t, n) when q is a prime power and that group
    exists, else None."""
    try:
        factor_prime_power(q)
        return group(family, q, t, n)
    except ValueError:
        return None


def build_classical(family: str, q: int, d: int | None, t: int | None = None,
                    n: int | None = None, **params) -> ClassicalCode:
    """Classical code behind one family instance: at distance d, or when d
    is None from explicit parameters, checked by Group.check (r for family
    ii; delta, or delta1 and delta2, and odd for family iii)."""
    if params and d is not None:
        raise ValueError(f"d={d} and explicit parameters "
                         f"{', '.join(params)} exclude each other")
    if not params and not admissible(family, q, t):
        raise ValueError(f"q={q} (t={t}) not admissible for family {family}")
    row = group(family, q, t, n)
    window = row.check(**params) if params else row.instances().get(d)
    if window is None:
        raise ValueError(f"d={d} not admissible for family {family}, q={q}")
    code = constacyclic_code(q, row.run(*window), row.point0)
    code.family = family
    return code


def family_codes(row: Group, windows: list[tuple[int, int]],
                 cross: Sequence[tuple[DefiningSet, DefiningSet] | None] = ()
                 ) -> Iterator[tuple[ClassicalCode, np.ndarray, int,
                                     int | None]]:
    """Each instance of one family group, one for each window (lo, hi)
    of the row, as its code, its Gram matrix H H^dagger, its ebit count
    c = rank(H H^dagger) and its cross rank; nothing for no windows.  One
    code holds them all: that of the least run that holds every window's
    defining set (cosets.hull, a ValueError when their union is not one
    run), whose rank proof covers every subset of its rows.  Its Gram
    matrix is formed once.  Each instance's rows are a contiguous block of
    that code's (codes.subcode), so its H is a view of the group's H and
    its Gram matrix a view of the principal block on those rows: no
    instance copies either.  cross may give, for each window in turn, a
    pair of runs (Z1, Z2) inside its defining set; that instance's cross
    rank is then rank(H1 H2^dagger), the block of the group's Gram matrix
    on the rows of Z1 and Z2, and otherwise None.  One kernels.block_ranks
    call on the group's Gram matrix counts every instance's c and every
    cross rank."""
    if not windows:
        return
    parts = [row.run(lo, hi) for lo, hi in windows]
    top = constacyclic_code(row.q, hull(parts), row.point0)
    gram = gram_matrix(top.H, row.q, top.field)
    subs = [subcode(top, part) for part in parts]
    asked = [i for i, pair in enumerate(cross) if pair is not None]
    blocks = [(rows, rows) for _, rows in subs] + [
        tuple(parity_rows(row.q, top.run, half) for half in cross[i])
        for i in asked]
    counts = kernels.block_ranks(gram, blocks, top.field)
    ranks = dict(zip(asked, counts[len(subs):]))
    for i, ((code, rows), c) in enumerate(zip(subs, counts)):
        code.family = row.family
        yield code, gram[rows, rows], c, ranks.get(i)


def enumerate_family(family: str, q: int, t: int | None = None,
                     n: int | None = None,
                     d: int | None = None) -> list[EaqeccParams]:
    """All EAQMDS codes of one family for a given q (and t), or with d
    just the one at distance d: enumerate_group on its group."""
    if not admissible(family, q, t):
        raise ValueError(f"q={q} (t={t}) not admissible for family {family}")
    row = group(family, q, t, n)
    return enumerate_group(row, row.instances(), d)


def enumerate_group(row: Group, instances: dict[int, tuple[int, int]],
                    d: int | None = None) -> list[EaqeccParams]:
    """The codes of one family group, given its row.instances(), or with
    d just the one at distance d, built by family_codes and each checked
    against the closed form; only the codes asked for are built.  A
    distance whose closed form gives k = 0 encodes no qudit and is left
    out."""
    wanted = [(dist, window) for dist, window in instances.items()
              if (d is None or dist == d) and row.k(dist) >= 1]
    out = []
    built = family_codes(row, [window for _, window in wanted])
    for (dist, _), (code, _, ebits, _) in zip(wanted, built):
        params = derive_eaqecc(code, ebits, row.t)
        expected = (row.n, row.k(dist), dist, row.c)
        got = (params.n, params.k, params.d, params.c)
        if got != expected:
            raise VerificationError(
                f"family {row.family} q={row.q} d={dist}: constructed {got} "
                f"!= closed form {expected}")
        out.append(params)
    return out
