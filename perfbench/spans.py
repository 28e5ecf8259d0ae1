"""In-memory span recorder that wraps the public functions of eaqmds.

The program itself carries no instrumentation, so the benchmark installs
it from outside: every public function of the traced layers is replaced,
in every ``eaqmds`` module namespace that holds it, by a wrapper that
records one span ``[id, parent, name, site, start, end, attrs]``.  ``name``
is ``<home module>.<function>``, ``site`` the namespace the call went
through, and ``attrs`` an optional dict of work counts filled in by a
probe after a successful call.  Scalar ``FieldContext`` arithmetic is a
method, not a module function, so it is never wrapped and counts toward
its caller's self time.
"""

from __future__ import annotations

import math
import sys
import time

LAYERS = ("galois", "codes", "cosets", "algebra", "kernels", "eaqecc",
          "verify", "cli")

ID, PARENT, NAME, SITE, START, END, ATTRS = range(7)


def _has_tables(ctx) -> bool:
    return getattr(ctx, "exp", None) is not None


def _build_field(args, kwargs, ctx):
    return {"ctx": id(ctx), "order": ctx.order, "tables": _has_tables(ctx)}


def _parity_check(args, kwargs, code):
    rows, cols = code.H.data.shape
    return {"entries": rows * cols}


def _tableless(args, kwargs, result):
    return {"tableless": not _has_tables(args[0].ctx)}


def _matmul(args, kwargs, result):
    A, B = args[0], args[1]
    return {"mults": A.shape[0] * A.shape[1] * B.shape[1]}


def _eliminate(args, kwargs, result):
    return {"cells": int(args[0].size)}


def _min_weight(args, kwargs, result):
    G, ctx = args[0], args[1]
    alphabet = args[2] if len(args) > 2 else kwargs.get("alphabet")
    size = ctx.order if alphabet is None else len(alphabet)
    return {"codewords": size ** G.shape[0] - 1}


def _first_singular_minor(args, kwargs, index):
    G = args[0]
    start = args[2] if len(args) > 2 else kwargs.get("start_index", 0)
    k, n = G.shape
    last = math.comb(n, k) if index == -1 else index + 1
    return {"minors": last - start}


def _certify(args, kwargs, result):
    return {"certified": result["method"] != "design-only"
            and bool(result["is_mds"]),
            "design_only": result["method"] == "design-only"}


# Work counts taken at the layer boundary, keyed by span name.
PROBES = {
    "galois.build_field": _build_field,
    "codes.constacyclic_code": _parity_check,
    "codes.extended_rs_code": _parity_check,
    "algebra.mat_mul": _tableless,
    "algebra.matrix_rank": _tableless,
    "algebra.rref": _tableless,
    "algebra.nullspace_basis": _tableless,
    "algebra.hermitian_adjoint": _tableless,
    "kernels.matmul": _matmul,
    "kernels.eliminate": _eliminate,
    "kernels.min_weight": _min_weight,
    "kernels.first_singular_minor": _first_singular_minor,
    "verify.certify_distance": _certify,
}


class Tracer:
    """Collects spans from wrapped eaqmds functions in this process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def install(self, package: str = "eaqmds") -> int:
        """Wrap every public layer function in every loaded ``package``
        module namespace; returns the number of wrappers installed."""
        homes = {f"{package}.{layer}" for layer in LAYERS}
        installed = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package
                                   or modname.startswith(package + ".")):
                continue
            site = modname.rsplit(".", 1)[-1]
            for attr, value in list(vars(mod).items()):
                home = getattr(value, "__module__", None)
                if (attr.startswith("_") or home not in homes
                        or isinstance(value, type) or not callable(value)):
                    continue
                name = f"{home.rsplit('.', 1)[-1]}.{value.__name__}"
                setattr(mod, attr, self._wrap(value, name, site))
                installed += 1
        return installed

    def _wrap(self, fn, name: str, site: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        probe = PROBES.get(name)

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, site,
                    clock(), 0.0, None]
            spans.append(span)
            stack.append(span[ID])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if probe is not None:
                span[ATTRS] = probe(args, kwargs, result)
            return result

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it that its child spans
    cover (overlapping children are counted once)."""
    children: dict[int, list[list]] = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append(s)
    out = []
    for s in spans:
        lo, hi = s[START], s[END]
        covered, edge = 0.0, lo
        for c in sorted(children.get(s[ID], ()), key=lambda c: c[START]):
            start, end = max(c[START], edge), min(c[END], hi)
            if end > start:
                covered += end - start
                edge = end
        out.append((hi - lo) - covered)
    return out
