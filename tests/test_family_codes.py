"""eaqecc.family_codes builds each family group (family, q, t, n) once
and hands out its instances as row slices of one parity check, each with
the principal block of one Gram matrix.  A wrong row map would reach every
instance of a family, so every instance that `enumerate --q 2..16 --t 3`
and the default `verify` grids produce is compared with a direct build;
and the union's one rank proof and one Gram product are counted."""

import json

import numpy as np
import pytest

from eaqmds import codes, eaqecc, kernels, verify
from eaqmds.cli import main
from eaqmds.codes import constacyclic_code, subcode
from eaqmds.cosets import DefiningSet, defining_set
from eaqmds.eaqecc import build_classical, family_codes


def _checked(real, seen):
    """family_codes that compares each yielded instance with the direct
    build_classical of its parameters, recording what it covered."""
    def wrapper(family, q, params, t=None, n=None):
        built = real(family, q, params, t, n)
        for kw, (code, gram) in zip(params, built, strict=True):
            direct = build_classical(family, q, None, t, n, **kw)
            assert np.array_equal(code.H, direct.H), (family, q, t, n, kw)
            assert (code.n, code.k, code.d_design, code.family) == \
                (direct.n, direct.k, direct.d_design, direct.family)
            assert code.defining_set == direct.defining_set
            assert code.field is direct.field
            f = direct.field
            assert np.array_equal(
                gram, kernels.matmul(direct.H, kernels.adjoint(direct.H, q, f),
                                     f)), (family, q, t, n, kw)
            Z = code.defining_set
            traced = Z is not None and (q * q - 1) % Z.modulus != 0
            seen.append((family, traced, kw.get("odd", False)))
            yield code, gram
    return wrapper


@pytest.mark.parametrize("argv, module", [
    (["enumerate", "--q", "2..16", "--t", "3"], eaqecc),
    (["verify"], verify),
], ids=["enumerate", "verify"])
def test_every_slice_matches_its_direct_build(monkeypatch, capsys, argv,
                                              module):
    seen = []
    monkeypatch.setattr(module, "family_codes",
                        _checked(module.family_codes, seen))
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    count = (len(out["records"]) if "records" in out
             else sum(r["instances"] for r in out["reports"]))
    assert len(seen) == count
    assert {fam for fam, _, _ in seen} == set(eaqecc.FAMILIES)
    # both trace-row and power-row parity checks, and family iii at even
    # and odd distance
    assert {traced for _, traced, _ in seen} == {False, True}
    assert {odd for fam, _, odd in seen if fam == "iii"} == {False, True}


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_rank_proof_and_one_gram_product_per_group(monkeypatch, capsys):
    proofs = _count_calls(monkeypatch, codes, "_independent_rows")
    products = _count_calls(monkeypatch, kernels, "matmul")
    # 210 instances in 10 (q, t) groups; the cross ranks of family v take
    # blocks of the Gram matrix and multiply nothing
    assert main(["verify", "--lemma", "consta", "--q", "5..29"]) == 0
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["instances"] == 210 and report["failures"] == 0
    assert len(proofs) == len(products) == 10

    proofs.clear()
    products.clear()
    assert main(["enumerate", "--q", "2..9", "--t", "3"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    groups = {(r["family"], r["q"]) for r in records}
    assert len(proofs) == len(groups)
    assert len(products) == len(groups) < len(records)


def test_empty_group_yields_nothing():
    # family iii at q = 5, n = 4 < q + 1 admits no delta
    assert list(family_codes("iii", 5, [], n=4)) == []
    assert verify.run_lemma_sweep("rank1-minus", [5]).ok


def test_subcode_rejects_what_the_union_does_not_hold():
    top = build_classical("i", 4, None, delta=2)
    Z = top.defining_set
    with pytest.raises(ValueError, match="no extended RS"):
        subcode(top, 3)
    with pytest.raises(ValueError, match="outside the defining set"):
        subcode(top, DefiningSet(17, 1, frozenset({5})))
    # trace rows (n = 17 does not divide 15) hold only sets closed under
    # z -> -z
    assert (4 * 4 - 1) % Z.modulus
    with pytest.raises(ValueError, match="closed"):
        subcode(top, DefiningSet(17, 1, frozenset({0, 1})))
    code, rows = subcode(top, defining_set("i", 4, delta=1))
    direct = constacyclic_code(4, defining_set("i", 4, delta=1))
    assert np.array_equal(code.H, direct.H)
    assert np.array_equal(code.H, top.H[rows])
    rs = build_classical("ii", 3, None, r=4)
    with pytest.raises(ValueError, match="no extended RS"):
        subcode(rs, 5)
    with pytest.raises(ValueError, match="holds no code"):
        subcode(rs, Z)
