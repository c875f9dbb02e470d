"""Generalized Koszul complexes: ranks, differentials, square zero."""

import importlib
import pathlib
import random
import sys

import pytest

from brimlab.corpus import ENTRIES, by_name
from brimlab.dsl import build, parse
from brimlab.groebner import term_component
from brimlab.koszul import (
    ExteriorIndex,
    ModuleMatrix,
    SymIndex,
    build_koszul,
    contraction,
    division_map,
    expected_rank,
    exterior_basis,
    export_triplets,
    fitting_ideal,
    multiplication_map,
    sym_basis,
    verify_complex,
)
from brimlab.poly import ContractError, Polynomial, PolyContext
from brimlab.rings import make_ring

sys.path.insert(0, str(pathlib.Path(__file__).parent))
import oracles
from test_homology import differential_rings, random_graded_matrix


def ring_xy():
    return make_ring(101, ["x", "y"])


def mat_of(ring, rows):
    return ModuleMatrix(ring, [[ring.element(e) if isinstance(e, Polynomial) else e for e in row]
                               for row in rows])


def poly_vars(ring):
    return [ring.ctx.variable(i) for i in range(ring.ctx.nvars)]


def test_matrix_contract_errors():
    ring = ring_xy()
    x, y = poly_vars(ring)
    with pytest.raises(ContractError):
        mat_of(ring, [[x + ring.ctx.one()]])  # inhomogeneous entry
    with pytest.raises(ContractError):
        mat_of(ring, [[x, y], [y, x], [x, x]])  # more rows than columns
    with pytest.raises(ContractError):
        ModuleMatrix(ring, [[x]])  # a raw polynomial, not a ring element
    with pytest.raises(ContractError):
        ModuleMatrix(ring, [[make_ring(7, ["x", "y"]).variable(0)]])  # another ring


def test_matrix_keeps_its_grading():
    ring = ring_xy()
    x, y = poly_vars(ring)
    m = mat_of(ring, [[x, y * y, ring.zero()], [x * y, y ** 3, ring.zero()]])
    # row 1 sits one degree below row 0; the zero column takes degree 0
    assert m.row_shifts == (0, -1) and m.col_degrees == (1, 2, 0)


def test_label_degrees_grade_every_differential():
    ring = ring_xy()
    x, y = poly_vars(ring)
    m = mat_of(ring, [[x, y * y, ring.zero()], [x * y, y ** 3, x * x]])
    for t in range(-1, m.n - m.r + 2):
        cx = build_koszul(m, t)
        for p in range(1, cx.length + 1):
            for i, row in enumerate(cx.differential(p)):
                for j, ent in enumerate(row):
                    if not ent.is_zero():
                        assert ent.degree() == cx.degrees[p][j] - cx.degrees[p - 1][i]
    # a wrong column degree is a fault of the construction, not of the input
    m.col_degrees = (1, 3, 1)
    with pytest.raises(RuntimeError, match="not of degree"):
        build_koszul(m, 1)


def test_exterior_and_sym_bases():
    assert [b.subset for b in exterior_basis(3, 2)] == [(0, 1), (0, 2), (1, 2)]
    assert exterior_basis(3, 0) == (ExteriorIndex(()),)
    assert exterior_basis(3, 4) == ()
    assert [s.multidegree for s in sym_basis(2, 2)] == [(2, 0), (1, 1), (0, 2)]
    assert sym_basis(2, 0) == (SymIndex((0, 0)),)


def test_contraction_hand_value():
    # delta_0 on e_{0,1} of [[x, y], [0, x]]: x*e_1 - y*e_0
    ring = ring_xy()
    x, y = poly_vars(ring)
    m = mat_of(ring, [[x, y], [ring.zero(), x]])
    out = contraction(m, 0, ExteriorIndex((0, 1)))
    assert [(str(c), idx.subset) for c, idx in out] == [("x", (1,)), ("100*y", (0,))]
    # row 1 kills the first slot, and position 1 carries a sign
    out = contraction(m, 1, ExteriorIndex((0, 1)))
    assert [(str(c), idx.subset) for c, idx in out] == [("100*x", (0,))]


@pytest.mark.parametrize("name", ["contraction", "multiplication_map", "division_map"])
@pytest.mark.parametrize("i", [-1, 2])
def test_index_out_of_range_is_contract_error(name, i):
    # i = -1 would quietly pick the last row or exponent
    ring = ring_xy()
    x, y = poly_vars(ring)
    m = mat_of(ring, [[x, y], [y, x]])
    calls = {
        "contraction": lambda: contraction(m, i, ExteriorIndex((0, 1))),
        "multiplication_map": lambda: multiplication_map(i, SymIndex((1, 0))),
        "division_map": lambda: division_map(i, SymIndex((1, 0))),
    }
    with pytest.raises(ContractError):
        calls[name]()


def test_ranks_match_binomials():
    ring = ring_xy()
    x, y = poly_vars(ring)
    m = mat_of(ring, [[x, y, ring.zero()], [ring.zero(), x, y]])
    for t in range(-1, 3):
        cx = build_koszul(m, t)
        for p in range(cx.length + 1):
            assert cx.rank(p) == expected_rank(m.r, m.n, t, p) == len(cx.labels[p])


def test_buchsbaum_rim_shape():
    # r=2, n=3, t=1: ranks (2, 3, 1) with the splice map at p=2
    ring = ring_xy()
    x, y = poly_vars(ring)
    m = mat_of(ring, [[x, y, ring.zero()], [ring.zero(), x, y]])
    cx = build_koszul(m, 1)
    assert [cx.rank(p) for p in range(cx.length + 1)] == [2, 3, 1]
    d1 = cx.differential(1)
    assert [[str(e) for e in row] for row in d1] == [["x", "y", "0"], ["0", "x", "y"]]


def test_eagon_northcott_t0_determinant():
    # r=n square case at t = 0: d_1 is the single determinant
    ring = ring_xy()
    x, y = poly_vars(ring)
    m = mat_of(ring, [[x, y], [y, x]])
    cx = build_koszul(m, 0)
    assert cx.rank(0) == 1 and cx.rank(1) == 1
    d1 = cx.differential(1)
    assert str(d1[0][0]) == "x^2 + 100*y^2"


def test_ordinary_koszul_any_t_when_rank_one():
    ring = ring_xy()
    x, y = poly_vars(ring)
    m = mat_of(ring, [[x * x, y * y * y]])
    base = None
    for t in range(-1, m.n - 1 + 2):
        cx = build_koszul(m, t)
        mats = {p: [[str(e) for e in row] for row in cx.differential(p)]
                for p in range(1, cx.length + 1)}
        if base is None:
            base = mats
        else:
            assert mats == base
    # and the t = 1 complex agrees with the independently built one
    cx = build_koszul(m, 1)
    want = oracles.ordinary_koszul([{(2, 0): 1}, {(0, 3): 1}], 101, 2, 2)
    got = {q: [[dict(e.rep.terms) for e in row] for row in cx.differential(q)]
           for q in range(1, cx.length + 1)}
    assert got == want


def test_square_zero_random_matrices():
    rng = random.Random(20240817)
    ring = ring_xy()
    x, y = poly_vars(ring)
    ctx = ring.ctx
    for trial in range(6):
        r = rng.choice([1, 2, 3])
        n = rng.randint(r, 5)
        rows = []
        for i in range(r):
            row = []
            for j in range(n):
                f = ctx.zero()
                for v in (x, y):
                    f = f + v.scale(ctx.constant(rng.randrange(101)).terms.get((0, 0), 0))
                row.append(ring.element(f))
            rows.append(row)
        m = ModuleMatrix(ring, rows)
        for t in range(-1, n - r + 2):
            cx = build_koszul(m, t)
            assert verify_complex(cx) == []


def test_mutation_is_detected():
    ring = ring_xy()
    x, y = poly_vars(ring)
    m = mat_of(ring, [[x * x, y * y * y]])
    cx = build_koszul(m, 1, check=False)
    cx.flip_sign(2, 0, 0)
    bad = verify_complex(cx)
    # the broken composite is d_1 . d_2, reported under the lower index
    assert bad and bad[0][0] == 1


def dense_verify_complex(cx):
    """Every entry of d_p o d_(p+1), zero ones included, as a sum of
    products reduced after each product, on the dense RingElement view:
    the loop verify_complex replaced, kept as its reference."""
    bad = []
    for p in range(1, cx.length):
        a = cx.differential(p)
        b = cx.differential(p + 1)
        for i in range(len(a)):
            for k in range(len(b[0]) if b else 0):
                acc = cx.ring.zero()
                for j in range(len(b)):
                    acc = acc + a[i][j] * b[j][k]
                if not acc.is_zero():
                    bad.append((p, i, k))
    return bad


def flips_agree_with_dense_loop(cx):
    """verify_complex equals the dense loop on cx and after every
    single-entry flip_sign (what verify --flip-sign p,row,col does);
    returns how many flips broke square zero."""
    assert verify_complex(cx) == dense_verify_complex(cx) == []
    flips = 0
    for p in range(1, cx.length + 1):
        for row in range(cx.rank(p - 1)):
            for col in range(cx.rank(p)):
                cx.flip_sign(p, row, col)
                bad = verify_complex(cx)
                assert bad == dense_verify_complex(cx)
                flips += bool(bad)
                cx.flip_sign(p, row, col)
    assert verify_complex(cx) == []
    return flips


# d o d of this rank-2 matrix over xy - z^2 is zero only modulo the ideal
CONE_R2 = ("ring { p = 101 vars = [x, y, z] ideal = [x*y - z^2] }\n"
           "module { rank = 2 matrix = [[x, y, z], [z, x, y]] }\n")


@pytest.mark.parametrize("text", [e.text for e in ENTRIES] + [CONE_R2],
                         ids=[e.name for e in ENTRIES] + ["cone-r2"])
def test_sparse_verify_complex_matches_dense_loop(text):
    _, mat = build(parse(text))
    flips = sum(flips_agree_with_dense_loop(build_koszul(mat, t, check=False))
                for t in range(-1, mat.n - mat.r + 2))
    if mat.n - mat.r + 1 >= 2:
        assert flips  # some flip breaks square zero


def test_sparse_verify_complex_matches_dense_loop_on_random_graded_matrices():
    # P2, cone and ncm; rank 1-2, column degrees 1-2, every t; n = r + 1,
    # since the dense loop takes seconds per r = 2, n = 4 matrix
    rings = [ring for ring in differential_rings() if ring.ctx.nvars == 3]
    rng = random.Random(2611)
    mats = [m for m in (random_graded_matrix(rng, rings) for _ in range(24)) if m.n == m.r + 1]
    flips = 0
    for mat in mats:
        for t in range(-1, mat.n - mat.r + 2):
            flips += flips_agree_with_dense_loop(build_koszul(mat, t, check=False))
    assert len(mats) >= 10 and {m.r for m in mats} == {1, 2} and flips


def test_flip_sign_out_of_range():
    ring = ring_xy()
    x, y = poly_vars(ring)
    cx = build_koszul(mat_of(ring, [[x, y]]), 1)
    for p, row, col in ((0, 0, 0), (3, 0, 0), (1, 1, 0), (1, 0, 2), (1, -1, 0)):
        with pytest.raises(ContractError):
            cx.flip_sign(p, row, col)


def test_square_zero_failure_raises(monkeypatch):
    # one flipped sign in every contraction breaks d o d = 0 on E1 at
    # t = 0, where d_2 contracts and the splice map d_1 takes the minors;
    # the check must raise with or without python -O
    koszul_mod = importlib.import_module("brimlab.koszul")
    real = koszul_mod._faces

    def flipped(nonzero, idx):
        out = real(nonzero, idx)
        return [(out[0][0], 1 - out[0][1], out[0][2])] + out[1:] if out else out

    monkeypatch.setattr(koszul_mod, "_faces", flipped)
    _, mat = build(by_name("E1").spec())
    assert verify_complex(build_koszul(mat, 0, check=False))
    with pytest.raises(RuntimeError, match="square-zero"):
        build_koszul(mat, 0)


def test_t_out_of_range():
    ring = ring_xy()
    x, y = poly_vars(ring)
    m = mat_of(ring, [[x, y]])
    with pytest.raises(ContractError):
        build_koszul(m, -2)
    with pytest.raises(ContractError):
        build_koszul(m, m.n - m.r + 2)


def test_fitting_ideal_against_leibniz():
    ring = ring_xy()
    x, y = poly_vars(ring)
    entries = [[x, y, x + y], [y, x, x - y]]
    m = mat_of(ring, entries)
    minors = fitting_ideal(m)
    assert len(minors) == 3  # one per column pair, in lex order
    from itertools import combinations

    for minor, cols in zip(minors, combinations(range(3), 2)):
        cells = [[dict(entries[i][j].terms) for j in cols] for i in range(2)]
        want = oracles.leibniz_det_terms(cells, 101, 2)
        assert dict(minor.rep.terms) == want


def test_minors_computed_once_and_only_for_a_splice(monkeypatch):
    # the splice d_(t+1) lies outside d_1..d_length at t = -1 and t = n-r+1
    koszul_mod = importlib.import_module("brimlab.koszul")
    ring = ring_xy()
    x, y = poly_vars(ring)
    m = mat_of(ring, [[x, y, x + y], [y, x, x - y]])
    calls = []
    real = koszul_mod._det

    def counted(rows, ring):
        calls.append(len(rows))
        return real(rows, ring)

    monkeypatch.setattr(koszul_mod, "_det", counted)
    for t in (-1, m.n - m.r + 1):
        build_koszul(m, t)
    assert calls == []
    for t in range(m.n - m.r + 1):
        build_koszul(m, t)
    assert fitting_ideal(m) is fitting_ideal(m)
    assert calls.count(2) == 3  # one top-level determinant per column pair, once


def test_export_triplets_format():
    ring = ring_xy()
    x, y = poly_vars(ring)
    m = mat_of(ring, [[x, y]])
    lines = export_triplets(build_koszul(m, 1)).splitlines()
    assert lines[0].split("\t") == ["1", "0", "0", "x"]
    assert all(len(l.split("\t")) == 4 for l in lines)


def test_export_triplets_lists_the_nonzero_entries_sorted():
    rng = random.Random(3)
    mats = [build(parse(text))[1] for text in [e.text for e in ENTRIES] + [CONE_R2]]
    mats += [random_graded_matrix(rng, differential_rings()) for _ in range(10)]
    for mat in mats:
        for t in range(-1, mat.n - mat.r + 2):
            cx = build_koszul(mat, t)
            want = [(p, i, j, str(e).replace(" ", "")) for p in range(1, cx.length + 1)
                    for i, row in enumerate(cx.differential(p)) for j, e in enumerate(row)
                    if not e.is_zero()]
            got = [tuple(map(int, line.split("\t")[:3])) + (line.split("\t")[3],)
                   for line in export_triplets(cx).splitlines()]
            assert got == sorted(want) == want
            # the dense view has a nonzero entry exactly where a column has a term
            ctx = cx.ring.ctx
            assert {g[:3] for g in got} == {(p, term_component(ctx, u), k) for p in range(1, cx.length + 1)
                                           for k, col in enumerate(cx.columns[p]) for u in col}
