"""Homology presentations, Euler characteristics, annihilation."""

import dataclasses
import importlib
import pathlib
import random
import sys

import pytest

from brimlab.corpus import by_name
from brimlab.dsl import build, parse
from brimlab.homology import (
    InfiniteLengthError,
    acyclicity_report,
    all_homology,
    annihilation_check,
    euler_characteristics,
    homology,
    kernel_generators,
)
from brimlab.groebner import buchberger
from brimlab.koszul import ModuleMatrix, build_koszul, fitting_ideal, sym_basis
from brimlab.poly import ContractError, PolyContext, VectorPolynomial
from brimlab.rings import make_ring

sys.path.insert(0, str(pathlib.Path(__file__).parent))
import oracles


def corpus_complex(name, t):
    ring, mat = build(by_name(name).spec())
    return ring, build_koszul(mat, t)


def test_kernel_of_injective_map_is_empty():
    ring = make_ring(101, ["x"])
    x = ring.element(ring.ctx.variable(0))
    assert kernel_generators(ring, [[x]]) == []


def test_kernel_of_empty_matrix_is_contract_error():
    ring = make_ring(101, ["x"])
    for matrix in ([], [[]]):
        with pytest.raises(ContractError):
            kernel_generators(ring, matrix)


def test_kernel_over_quotient_ring():
    # over A = F[x,y]/(x^2, xy) the kernel of y is the principal module (x)
    ring, _ = corpus_complex("E2", 1)
    y = ring.variable(1)
    gens = kernel_generators(ring, [[y]])
    assert [[str(c) for c in v] for v in gens] == [["x"]]
    for v in gens:
        assert (y * v[0]).is_zero()


def test_h0_is_plain_cokernel():
    ring, cx = corpus_complex("E2", 1)
    pres = homology(cx, 0)
    assert pres.length == 2
    assert len(pres.kernel_gens) == cx.rank(0)


def test_corpus_h1_lengths():
    _, cx = corpus_complex("E2", 1)
    assert homology(cx, 1).length == 1
    _, cx4 = corpus_complex("E4", 1)
    assert homology(cx4, 1).length == 2


def test_euler_table_recurrence():
    _, cx = corpus_complex("E4", 0)
    table = euler_characteristics(cx)
    assert table.lengths == (3, 1)
    top = len(table.lengths) - 1
    for q in range(top + 1):
        want = sum((-1) ** (p - q) * table.lengths[p] for p in range(q, top + 1))
        assert table.chis[q] == want
    assert table.chi == 2


def test_euler_infinite_raises():
    ring = make_ring(101, ["x", "y"])
    x = ring.element(ring.ctx.variable(0))
    mat = ModuleMatrix(ring, [[x]])
    cx = build_koszul(mat, 1)
    with pytest.raises(InfiniteLengthError) as exc:
        euler_characteristics(cx)
    assert exc.value.p == 0


def test_annihilation_clean_on_corpus():
    for name in ("E1", "E2", "E4", "E5"):
        _, cx = corpus_complex(name, 1)
        assert annihilation_check(cx) == []


def test_annihilation_flags_fake_minor():
    # 1 never annihilates the nonzero class in H_1 of the E2 complex
    ring, cx = corpus_complex("E2", 1)
    bad = annihilation_check(cx, minors=[ring.one()])
    assert (1, 0, 0) in bad


def test_acyclicity_split():
    _, cx = corpus_complex("E1", 1)
    rep = acyclicity_report(cx)
    assert rep.acyclic and set(rep.lengths) == {1, 2}
    _, cx2 = corpus_complex("E2", 1)
    rep2 = acyclicity_report(cx2)
    assert not rep2.acyclic and rep2.lengths == {1: 1}


def test_homology_matches_dense_oracle():
    # a non-corpus instance: A = F[x,y]/(x^2), matrix [[y, x]]
    ctx_p, nv = 101, 2
    ring, mat = build(parse(
        "ring { p = 101 vars = [x, y] ideal = [x^2] }\n"
        "module { rank = 1 matrix = [[y, x]] }\n"))
    for t in (-1, 0, 1, 2):
        cx = build_koszul(mat, t)
        pres = all_homology(cx)
        ranks = {q: cx.rank(q) for q in range(cx.length + 1)}
        diffs = {q: [[dict(el.rep.terms) for el in row] for row in cx.differential(q)]
                 for q in range(1, cx.length + 1)}
        want = oracles.complex_homology_lengths(ctx_p, nv, [{(2, 0): 1}], diffs, ranks)
        got = {q: pres[q].length for q in pres}
        assert got == want


def test_all_homology_covers_every_degree():
    _, cx = corpus_complex("E5", 1)
    pres = all_homology(cx)
    assert sorted(pres) == list(range(cx.length + 1))
    assert [pres[q].length for q in sorted(pres)] == [3, 0, 0]


def direct_annihilation(cx, minors):
    """The membership test annihilation_check replaces, kept as a
    reference: g*u in im d_(p+1) + I K_p by its own Groebner basis."""
    ring = cx.ring
    pres = all_homology(cx)
    bad = []
    for p in range(cx.length + 1):
        kernel = pres[p].kernel_gens
        rank_p = cx.rank(p)
        d_in = cx.differential(p + 1) or []
        cols = [VectorPolynomial(tuple(d_in[i][j].rep for i in range(rank_p)))
                for j in range(len(d_in[0]) if d_in else 0)]
        cols = [v for v in cols if not v.is_zero()] + ring.lifted_ideal_columns(rank_p)
        gb = buchberger(cols) if cols else None
        for mi, g in enumerate(minors):
            if g.is_zero():
                continue
            for ki, u in enumerate(kernel):
                scaled = VectorPolynomial(tuple((g * v).rep for v in u))
                if not scaled.is_zero() and (gb is None or not gb.contains(scaled)):
                    bad.append((p, mi, ki))
    return bad


def random_form(ring, rng, degree):
    poly = ring.ctx.zero()
    for s in sym_basis(ring.ctx.nvars, degree):
        c = rng.randrange(ring.p)
        if c:
            poly = poly + ring.ctx.monomial(s.multidegree, c)
    return ring.element(poly)


def test_annihilation_matches_direct_membership():
    rng = random.Random(5)
    cases = []
    for name in ("E1", "E2", "E3", "E4", "E5", "E6"):
        ring, mat = build(by_name(name).spec())
        for t in range(-1, mat.n - mat.r + 2):
            cases.append((ring, mat, t))
    x7 = PolyContext(7, ["x", "y"]).variable(0)
    rings = [make_ring(7, ["x", "y"]), make_ring(5, ["x", "y", "z"]),
             make_ring(7, ["x", "y"], [x7 * x7])]
    for _ in range(12):
        ring = rng.choice(rings)
        r = rng.randint(1, 2)
        n = rng.randint(r, r + 1)
        degrees = [rng.randint(1, 2) for _ in range(n)]  # one per column: a graded map
        mat = ModuleMatrix(ring, [[random_form(ring, rng, d) for d in degrees] for _ in range(r)])
        cases.append((ring, mat, rng.randint(-1, n - r + 1)))
    flagged = 0
    for ring, mat, t in cases:
        cx = build_koszul(mat, t)
        variables = [ring.variable(i) for i in range(ring.ctx.nvars)]
        for minors in (fitting_ideal(mat), variables, [random_form(ring, rng, 1)]):
            want = direct_annihilation(cx, minors)
            assert annihilation_check(cx, minors) == want
            flagged += bool(want)
    assert flagged >= 10  # the comparison covers violations, not only clean runs


def test_annihilation_runs_no_groebner_basis(monkeypatch):
    groebner_mod = importlib.import_module("brimlab.groebner")
    homology_mod = importlib.import_module("brimlab.homology")  # brimlab.homology is the function
    rings_mod = importlib.import_module("brimlab.rings")

    ring, cx = corpus_complex("E2", 1)
    pres = all_homology(cx)
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("no Groebner run expected")

    for mod, name in ((groebner_mod, "buchberger"), (rings_mod, "buchberger"),
                      (groebner_mod, "syzygy_basis"), (homology_mod, "syzygy_basis")):
        monkeypatch.setattr(mod, name, refuse)
    assert annihilation_check(cx, presentations=pres) == []
    assert annihilation_check(cx, minors=[ring.one()], presentations=pres) == [(0, 0, 0), (1, 0, 0)]
    assert calls == []


def test_presentation_keeps_its_basis_out_of_equality():
    _, cx = corpus_complex("E2", 1)
    pres = homology(cx, 1)
    assert pres.basis.colength() == pres.length
    assert pres == dataclasses.replace(pres, basis=None)
    assert "basis" not in repr(pres)


def test_homology_degree_out_of_range_is_contract_error():
    _, cx = corpus_complex("E2", 1)
    for p in (-1, cx.length + 1):
        with pytest.raises(ContractError):
            homology(cx, p)
