"""Tests of the benchmark itself: output checks, span wrapping, self time.

Run with: python3 -m pytest perfbench/tests
"""

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    CheckFailed,
    check_distance,
    check_records,
    check_sweeps,
)

RECORD = {"family": "i", "q": 4, "t": None, "n": 17, "k": 8, "d": 6, "c": 1,
          "saturated": True}


def _records(**change):
    return json.dumps({"records": [RECORD, {**RECORD, **change}]})


def test_records_pass_and_count_k_at_least_one():
    assert check_records(_records()) == 2
    zero_k = {"family": "i", "q": 2, "t": None, "n": 5, "k": 0, "d": 4,
              "c": 1, "saturated": True}
    assert check_records(json.dumps({"records": [RECORD, zero_k]})) == 1


@pytest.mark.parametrize("change", [
    {"saturated": False},
    {"k": 10},                 # off the EA-Singleton equality
    {"c": 2, "k": 9},          # family i has c = 1
    {"d": 10, "k": 0},         # d above 2q for q = 4
    {"d": 5, "k": 10},         # odd d in family i
])
def test_tampered_record_fails(change):
    with pytest.raises(CheckFailed):
        check_records(_records(**change))


def test_sweep_failure_fails():
    ok = {"lemma": "rank1", "instances": 5, "failures": 0}
    assert check_sweeps(json.dumps({"reports": [ok, ok]})) == 10
    bad = {**ok, "failures": 1}
    with pytest.raises(CheckFailed):
        check_sweeps(json.dumps({"reports": [ok, bad]}))


def test_design_only_distance_fails():
    rec = {"family": "i", "q": 4, "classical": {"n": 17, "k": 10},
           "method": "minors", "oracle_distance": 8, "is_mds": True}
    assert check_distance(json.dumps(rec)) == 1
    for change in ({"method": "design-only", "oracle_distance": None,
                    "is_mds": None},
                   {"is_mds": False}, {"oracle_distance": 7}):
        with pytest.raises(CheckFailed):
            check_distance(json.dumps({**rec, **change}))


def test_wall_sums_per_operation_medians():
    def op(argv, wall, rss):
        return {"argv": argv, "wall_s": wall, "items": 3, "setup_s": 0.1,
                "rss_mb": rss, "ok": True}
    plain = [[op(["a"], 2.0, 10.0), op(["b"], 1.0, 12.0)],
             [op(["a"], 4.0, 11.0), op(["b"], 1.0, 11.0)],
             [op(["a"], 3.5, 10.0), op(["b"], 9.0, 10.0)]]
    m = run.e2e_metrics(plain)
    assert m["wall_s"] == pytest.approx(3.5 + 1.0)
    assert m["items_per_s"] == pytest.approx(6 / 4.5)
    assert m["peak_rss_mb"] == 12.0 and m["setup_s"] == pytest.approx(0.1)


def test_scale_uses_phase_probe_or_whole_process():
    ref = run.PROBE_REF_S
    probe = {"main": [2 * ref, run.MIN_PROBES], "all": [4 * ref, 40]}
    assert run.scale(3.0, probe, "main") == pytest.approx(1.5)
    assert run.scale(3.0, probe, "all") == pytest.approx(0.75)
    few = {"main": [2 * ref, run.MIN_PROBES - 1], "all": [4 * ref, 40]}
    assert run.scale(3.0, few, "main") == pytest.approx(0.75)
    assert run.scale(3.0, probe, "all", 0.5) == pytest.approx(1.5)


def _span(sid, parent, name, start, end, attrs=None):
    return [sid, parent, name, "site", start, end, attrs]


def test_self_time_subtracts_children_once():
    spans = [
        _span(0, -1, "cli.main", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 1, "b", 2.0, 3.0),
        _span(3, 0, "c", 5.0, 9.0),
        _span(4, 3, "d", 5.0, 7.0),
        _span(5, 3, "e", 6.0, 8.0),   # overlaps d: 5..8 covered once
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.0])


def test_totals_attribute_by_caller():
    spans = [
        _span(0, -1, "cli.main", 0.0, 10.0),
        _span(1, 0, "codes.constacyclic_code", 0.0, 4.0, {"entries": 12}),
        _span(2, 1, "algebra.matrix_rank", 1.0, 2.0, {"tableless": True}),
        _span(3, 0, "eaqecc.ebit_count", 4.0, 9.0),
        _span(4, 3, "algebra.hermitian_adjoint", 4.0, 5.0,
              {"tableless": False}),
        _span(5, 3, "algebra.mat_mul", 5.0, 7.0, {"tableless": False}),
        _span(6, 3, "algebra.matrix_rank", 7.0, 8.5, {"tableless": False}),
        _span(7, 0, "galois.build_field", 9.0, 9.5,
              {"ctx": 1, "order": 16, "tables": True}),
        _span(8, 0, "galois.build_field", 9.5, 9.6,
              {"ctx": 1, "order": 16, "tables": True}),
    ]
    m = layers.metrics(layers.totals(spans), 0.0)
    assert m["codes.parity_check_s"] == pytest.approx(3.0)
    assert m["codes.parity_check_entries"] == 12
    assert m["codes.h_rank_s"] == pytest.approx(1.0)
    assert m["algebra.fallback_s"] == pytest.approx(1.0)
    assert m["algebra.fallback_calls"] == 1
    assert m["eaqecc.gram_product_s"] == pytest.approx(3.0)
    assert m["eaqecc.gram_rank_s"] == pytest.approx(1.5)
    assert m["galois.fields_built"] == 1
    assert m["galois.table_entries"] == 16
    assert m["galois.field_cache_hit_ratio"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(10.0 - 4.0 - 5.0 - 0.6)
    assert m["kernels.minors"] == 0


def test_metrics_cover_every_reported_name():
    assert list(layers.metrics({}, 0.0)) == list(layers.METRICS)


def test_tracer_wraps_every_namespace(monkeypatch):
    pkg = "fakepkg"
    algebra = types.ModuleType(f"{pkg}.algebra")
    codes = types.ModuleType(f"{pkg}.codes")

    def rank(x):
        return x + 1

    def _private(x):
        return x

    rank.__module__ = _private.__module__ = algebra.__name__
    algebra.rank, algebra._private = rank, _private

    def build(x):
        return codes.rank(x) * 2

    build.__module__ = codes.__name__
    codes.rank, codes.build = rank, build
    for mod in (algebra, codes):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    tracer = Tracer()
    assert tracer.install(pkg) == 3
    assert algebra._private is _private
    assert codes.build(1) == 4 and algebra.rank(1) == 2
    names = [(s[2], s[3], s[1]) for s in tracer.spans]
    assert names == [("codes.build", "codes", -1),
                     ("algebra.rank", "codes", 0),
                     ("algebra.rank", "algebra", -1)]
