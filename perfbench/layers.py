"""Per-layer metrics from the spans of traced CLI invocations.

``totals`` turns the spans of one process into additive sums, so the
totals of several invocations add up to those of a workload pass;
``metrics`` then derives the reported per-layer values, ratios included.
A function that no longer exists simply records no spans and yields 0.
"""

from __future__ import annotations

from spans import ATTRS, END, ID, NAME, PARENT, START, self_times

PARITY_CHECK = ("codes.constacyclic_code", "codes.extended_rs_code")
FALLBACK = ("algebra.mat_mul", "algebra.matrix_rank", "algebra.rref",
            "algebra.nullspace_basis", "algebra.hermitian_adjoint")
GRAM_PRODUCT = ("algebra.mat_mul", "algebra.hermitian_adjoint")

# name -> unit, in report order
METRICS = {
    "galois.build_field_s": "s",
    "galois.fields_built": "count",
    "galois.field_cache_hit_ratio": "ratio",
    "galois.table_entries": "count",
    "galois.tableless_fields": "count",
    "codes.parity_check_s": "s",
    "codes.parity_check_entries": "count",
    "codes.h_rank_s": "s",
    "codes.generator_s": "s",
    "cosets.defining_set_s": "s",
    "cosets.defining_sets": "count",
    "algebra.fallback_s": "s",
    "algebra.fallback_calls": "count",
    "eaqecc.gram_product_s": "s",
    "eaqecc.gram_rank_s": "s",
    "eaqecc.ebit_counts": "count",
    "kernels.matmul_s": "s",
    "kernels.matmul_calls": "count",
    "kernels.matmul_mults": "count",
    "kernels.eliminate_s": "s",
    "kernels.eliminate_calls": "count",
    "kernels.eliminate_cells": "count",
    "kernels.min_weight_s": "s",
    "kernels.codewords": "count",
    "kernels.codewords_per_s": "1/s",
    "kernels.minor_s": "s",
    "kernels.minors": "count",
    "kernels.minors_per_s": "1/s",
    "verify.certify_s": "s",
    "verify.certified_ratio": "ratio",
    "verify.budget_exceeded": "count",
    "verify.sweep_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def totals(spans: list[list]) -> dict[str, float]:
    """Additive per-layer sums over the spans of one process."""
    t: dict[str, float] = {}

    def add(key, value):
        t[key] = t.get(key, 0) + value

    by_id = {s[ID]: s for s in spans}
    fields: dict[int, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        name, dur, attrs = s[NAME], s[END] - s[START], s[ATTRS] or {}
        parent = by_id.get(s[PARENT])
        caller = parent[NAME] if parent is not None else None
        if name == "galois.build_field":
            add("build_field_s", dur)
            add("build_field_calls", 1)
            if attrs:
                fields[attrs["ctx"]] = attrs
        elif name in PARITY_CHECK:
            add("parity_check_s", own)
            add("parity_check_entries", attrs.get("entries", 0))
        elif name == "codes.generator_matrix":
            add("generator_s", dur)
        elif name == "cosets.defining_set":
            add("defining_set_s", dur)
            add("defining_sets", 1)
        elif name == "eaqecc.ebit_count":
            add("ebit_counts", 1)
        elif name == "kernels.matmul":
            add("matmul_s", dur)
            add("matmul_calls", 1)
            add("matmul_mults", attrs.get("mults", 0))
        elif name == "kernels.eliminate":
            add("eliminate_s", dur)
            add("eliminate_calls", 1)
            add("eliminate_cells", attrs.get("cells", 0))
        elif name == "kernels.min_weight":
            add("min_weight_s", dur)
            add("codewords", attrs.get("codewords", 0))
        elif name == "kernels.first_singular_minor":
            add("minor_s", dur)
            add("minors", attrs.get("minors", 0))
        elif name == "verify.certify_distance":
            add("certify_s", dur)
            add("certify_calls", 1)
            add("certified", int(attrs.get("certified", False)))
            add("budget_exceeded", int(attrs.get("design_only", False)))
        elif name == "verify.run_lemma_sweep":
            add("sweep_s", dur)
        if name in FALLBACK and attrs.get("tableless"):
            add("fallback_s", own)
            add("fallback_calls", 1)
        if name == "algebra.matrix_rank" and caller == "codes.constacyclic_code":
            add("h_rank_s", dur)
        if caller == "eaqecc.ebit_count":
            if name in GRAM_PRODUCT:
                add("gram_product_s", dur)
            elif name == "algebra.matrix_rank":
                add("gram_rank_s", dur)
        if name.startswith("cli."):
            add("cli_self_s", own)
    add("fields_built", len(fields))
    add("table_entries", sum(f["order"] for f in fields.values()
                             if f["tables"]))
    add("tableless_fields", sum(1 for f in fields.values()
                                if not f["tables"]))
    return t


def merge(parts: list[dict[str, float]]) -> dict[str, float]:
    out: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            out[key] = out.get(key, 0) + value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(t: dict[str, float], overhead_frac: float) -> dict[str, float]:
    """Reported per-layer values (``METRICS`` order) from summed totals."""
    g = t.get
    calls, built = g("build_field_calls", 0), g("fields_built", 0)
    return {
        "galois.build_field_s": g("build_field_s", 0.0),
        "galois.fields_built": built,
        "galois.field_cache_hit_ratio": _ratio(calls - built, calls),
        "galois.table_entries": g("table_entries", 0),
        "galois.tableless_fields": g("tableless_fields", 0),
        "codes.parity_check_s": g("parity_check_s", 0.0),
        "codes.parity_check_entries": g("parity_check_entries", 0),
        "codes.h_rank_s": g("h_rank_s", 0.0),
        "codes.generator_s": g("generator_s", 0.0),
        "cosets.defining_set_s": g("defining_set_s", 0.0),
        "cosets.defining_sets": g("defining_sets", 0),
        "algebra.fallback_s": g("fallback_s", 0.0),
        "algebra.fallback_calls": g("fallback_calls", 0),
        "eaqecc.gram_product_s": g("gram_product_s", 0.0),
        "eaqecc.gram_rank_s": g("gram_rank_s", 0.0),
        "eaqecc.ebit_counts": g("ebit_counts", 0),
        "kernels.matmul_s": g("matmul_s", 0.0),
        "kernels.matmul_calls": g("matmul_calls", 0),
        "kernels.matmul_mults": g("matmul_mults", 0),
        "kernels.eliminate_s": g("eliminate_s", 0.0),
        "kernels.eliminate_calls": g("eliminate_calls", 0),
        "kernels.eliminate_cells": g("eliminate_cells", 0),
        "kernels.min_weight_s": g("min_weight_s", 0.0),
        "kernels.codewords": g("codewords", 0),
        "kernels.codewords_per_s": _ratio(g("codewords", 0),
                                          g("min_weight_s", 0.0)),
        "kernels.minor_s": g("minor_s", 0.0),
        "kernels.minors": g("minors", 0),
        "kernels.minors_per_s": _ratio(g("minors", 0), g("minor_s", 0.0)),
        "verify.certify_s": g("certify_s", 0.0),
        "verify.certified_ratio": _ratio(g("certified", 0),
                                         g("certify_calls", 0)),
        "verify.budget_exceeded": g("budget_exceeded", 0),
        "verify.sweep_s": g("sweep_s", 0.0),
        "cli.self_s": g("cli_self_s", 0.0),
        "trace.overhead_frac": overhead_frac,
    }
